package experiments

import (
	"bytes"
	"strings"
	"testing"

	"cxlfork/internal/des"
)

// smallTelemetryConfig shrinks the replay to two functions and a
// short trace so the test stays fast while still sampling.
func smallTelemetryConfig() TelemetryTraceConfig {
	return TelemetryTraceConfig{
		Workload: Workload{
			RPS:       40,
			Duration:  10 * des.Second,
			Functions: []string{"Float", "Json"},
			Seed:      7,
		},
		DeviceFrac: 0.5,
	}
}

func TestTelemetryTraceSamplesAndExports(t *testing.T) {
	p := ExpParams()
	r, err := TelemetryTrace(p, smallTelemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Registry.Enabled() || r.Registry.Ticks() == 0 {
		t.Fatal("replay recorded no samples")
	}
	if r.Results.TelemetrySamples != r.Registry.Ticks() {
		t.Fatalf("results report %d samples, registry %d",
			r.Results.TelemetrySamples, r.Registry.Ticks())
	}
	if r.Registry.Lookup("cxl_utilization") == nil {
		t.Fatal("device series not registered")
	}
	var buf bytes.Buffer
	if err := r.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "porter_completed_total") {
		t.Fatal("export missing porter series")
	}
}

func TestSLOComparisonDrivesEarlyReclaim(t *testing.T) {
	p := ExpParams()
	cfg := DefaultSLOConfig()
	// Shrink to test scale: medium checkpoints hovering around 44%
	// occupancy, with the objective placed below that (low 0.30 <
	// target 0.40) so the firing alert has room to reclaim early while
	// the high watermark stays out of reach.
	cfg.RPS = 40
	cfg.Duration = 20 * des.Second
	cfg.Functions = []string{"Float", "Json", "Rnn", "Chameleon"}
	cfg.Weights = nil
	cfg.DeviceFrac = 0.6
	cfg.Occupancy = 0.40
	cfg.LowWatermark = 0.30
	r, err := SLO(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Drive.Results.SLOAlertsFired == 0 {
		t.Fatalf("driven run fired no alerts (occ max %.2f)", r.Drive.OccMax)
	}
	if r.Drive.Results.ReclaimPasses <= r.Observe.Results.ReclaimPasses {
		t.Fatalf("drive did not reclaim earlier: %d vs observe %d",
			r.Drive.Results.ReclaimPasses, r.Observe.Results.ReclaimPasses)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"SLO burn-rate drive", "observe", "drive", "telemetry:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
