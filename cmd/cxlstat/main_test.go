package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
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

// TestUnknownPlacementExits runs cxlstat with -placement bogus in a
// child process (this test binary re-run on main, its arguments after
// "--"): it must exit 1 and name the value, not replay it as hash.
func TestUnknownPlacementExits(t *testing.T) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{"cxlstat"}, os.Args[i+1:]...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownPlacementExits$", "--",
		"-rps", "10", "-duration", "1", "-fn", "Float", "-switches", "2", "-devices", "2", "-rf", "2", "-placement", "bogus", "-format", "prom")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("cxlstat -placement bogus: %v, want exit status 1\nstderr: %s", err, stderr.String())
	}
	if want := `unknown placement policy "bogus"`; !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q does not mention %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Fatalf("cxlstat printed %d bytes of output for a rejected run", stdout.Len())
	}
}
