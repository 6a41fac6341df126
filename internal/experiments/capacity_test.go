package experiments

import (
	"bytes"
	"strings"
	"testing"

	"cxlfork/internal/des"
)

// smallCapacityConfig shrinks the sweep to two functions, one tight
// device size, and a short trace so the test stays fast while still
// forcing evictions.
func smallCapacityConfig() CapacityConfig {
	return CapacityConfig{
		Workload: Workload{
			RPS:       40,
			Duration:  20 * des.Second,
			KeepAlive: 2 * des.Second,
			Functions: []string{"Float", "Json"},
			Seed:      7,
		},
		DeviceFractions: []float64{0.5},
		Policies:        CapacityPolicies,
	}
}

func TestCapacitySweepEvictsAndRenders(t *testing.T) {
	p := ExpParams()
	r, err := Capacity(p, smallCapacityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.FootprintBytes <= 0 {
		t.Fatal("no measured footprint")
	}
	if len(r.Runs) != len(CapacityPolicies) {
		t.Fatalf("runs = %d", len(r.Runs))
	}
	for _, run := range r.Runs {
		if run.DeviceBytes >= r.FootprintBytes {
			t.Fatalf("%s: device %d not shrunken below footprint %d",
				run.Policy, run.DeviceBytes, r.FootprintBytes)
		}
		// A device at half the aggregate footprint cannot hold both
		// checkpoints: every policy must have evicted or refused.
		if run.Results.EvictedCkpts == 0 && run.Results.CkptRefused == 0 {
			t.Fatalf("%s: no capacity activity under pressure: %+v",
				run.Policy, run.Results)
		}
		if run.Results.Completed == 0 {
			t.Fatalf("%s: no completed requests", run.Policy)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Capacity sweep", "Device = 50%", "costbenefit", "largest", "lru"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCapacitySweepDeterministic(t *testing.T) {
	p := ExpParams()
	cfg := smallCapacityConfig()
	a, err := Capacity(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Capacity(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FootprintBytes != b.FootprintBytes {
		t.Fatalf("footprint differs: %d vs %d", a.FootprintBytes, b.FootprintBytes)
	}
	for i := range a.Runs {
		if a.Runs[i].Fingerprint != b.Runs[i].Fingerprint {
			t.Fatalf("%s@%.0f%%: fingerprints differ: %#x vs %#x",
				a.Runs[i].Policy, 100*a.Runs[i].DevFrac,
				a.Runs[i].Fingerprint, b.Runs[i].Fingerprint)
		}
	}
}
