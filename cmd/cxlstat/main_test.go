package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/telemetry"
)

// TestCheckExposition runs the -check grammar over a registry's real
// Prometheus exposition, which must pass, and over the same text with
// two malformed lines appended, which must be counted and reported.
func TestCheckExposition(t *testing.T) {
	reg := telemetry.New(100*des.Millisecond, 16)
	reg.Gauge("cxl_utilization", "Device occupancy.", func(des.Time) float64 { return 0.5 }, telemetry.L("device", "0"))
	reg.Counter("porter_completed_total", "Completed requests.").Add(42)
	reg.Sample(100 * des.Millisecond)
	reg.Sample(200 * des.Millisecond)
	var good bytes.Buffer
	if err := reg.WritePrometheus(&good); err != nil {
		t.Fatal(err)
	}

	var report bytes.Buffer
	if n := checkExposition(&report, good.Bytes()); n != 0 {
		t.Fatalf("well-formed exposition: %d malformed lines\n%s", n, report.String())
	}

	lines := strings.Count(good.String(), "\n")
	bad := good.String() + "porter_completed_total forty-two 200\n# NOTE free-form comment\n"
	report.Reset()
	if n := checkExposition(&report, []byte(bad)); n != 2 {
		t.Fatalf("malformed exposition: %d malformed lines, want 2\n%s", n, report.String())
	}
	for _, want := range []string{
		fmt.Sprintf(`line %d malformed: "porter_completed_total forty-two 200"`, lines+1),
		fmt.Sprintf(`line %d malformed: "# NOTE free-form comment"`, lines+2),
	} {
		if !strings.Contains(report.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, report.String())
		}
	}
}
