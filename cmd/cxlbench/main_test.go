package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleReport builds a healthy trajectory report; tests doctor copies
// of it to prove each gate trips.
func sampleReport() *trajReport {
	rep := &trajReport{
		Schema:               trajectorySchema,
		SteadyAllocsPerEvent: 0.0001,
		Azure: trajAzure{
			Nodes: 4, Arrivals: 1000, Completed: 1000,
			Events: 2000, SimNs: 4e11, WallNs: 5e9,
			EventsPerSec: 400_000, SimSecPerWallSec: 80,
			AllocsPerEvent: 3.8, Fingerprint: "0x00000000deadbeef",
		},
	}
	return rep
}

// clone round-trips through JSON so doctoring one copy cannot alias
// the other — and proves the schema survives marshalling.
func clone(t *testing.T, rep *trajReport) *trajReport {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var out trajReport
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestCheckReportCleanBaselinePasses(t *testing.T) {
	rep := sampleReport()
	if v := checkReport(clone(t, rep), rep, 0.2); len(v) != 0 {
		t.Fatalf("identical reports produced violations: %v", v)
	}
}

func TestCheckReportCatchesDoctoredBaselines(t *testing.T) {
	rep := sampleReport()
	cases := []struct {
		name   string
		doctor func(fresh *trajReport)
		want   string
	}{
		{"throughput collapse", func(f *trajReport) {
			f.Azure.EventsPerSec /= 100
		}, "below"},
		{"azure fingerprint drift", func(f *trajReport) {
			f.Azure.Fingerprint = "0x0000000000bad000"
		}, "azure"},
		{"azure completed drift", func(f *trajReport) {
			f.Azure.Completed--
		}, "completed"},
		{"alloc ceiling breach", func(f *trajReport) {
			f.SteadyAllocsPerEvent = 1.5
		}, "allocs/event"},
		{"azure alloc regression", func(f *trajReport) {
			f.Azure.AllocsPerEvent += 1
		}, "allocs/event"},
		{"schema drift", func(f *trajReport) {
			f.Schema = "cxlbench-trajectory/0"
		}, "schema"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := clone(t, rep)
			tc.doctor(fresh)
			v := checkReport(fresh, rep, 0.2)
			if len(v) == 0 {
				t.Fatalf("doctored report passed the gate")
			}
			joined := strings.ToLower(strings.Join(v, "\n"))
			if !strings.Contains(joined, tc.want) {
				t.Fatalf("violations %v do not mention %q", v, tc.want)
			}
		})
	}
}

// TestGateExitsNonzeroOnDoctoredBaseline is the end-to-end gating
// proof: a committed baseline whose fingerprints differ from the fresh
// run must make the harness exit nonzero.
func TestGateExitsNonzeroOnDoctoredBaseline(t *testing.T) {
	fresh := sampleReport()
	doctored := clone(t, fresh)
	doctored.Azure.Fingerprint = "0x0000000000bad000"
	doctored.Azure.Events += 7

	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_0007.json")
	blob, err := json.MarshalIndent(doctored, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	if code := gate(fresh, path, 0.2, &stderr); code == 0 {
		t.Fatalf("gate passed a doctored baseline:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "REGRESSION") {
		t.Fatalf("gate output missing REGRESSION marker:\n%s", stderr.String())
	}

	var clean bytes.Buffer
	good, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := gate(clone(t, fresh), path, 0.2, &clean); code != 0 {
		t.Fatalf("gate failed a clean baseline:\n%s", clean.String())
	}
}

func TestGateExitsNonzeroOnMissingBaseline(t *testing.T) {
	var stderr bytes.Buffer
	if code := gate(sampleReport(), filepath.Join(t.TempDir(), "nope.json"), 0.2, &stderr); code == 0 {
		t.Fatal("gate passed with no baseline file")
	}
}
