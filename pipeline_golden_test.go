package cxlfork

import (
	"bytes"
	"testing"
	"time"
)

// Constant pins for the facade's replay entry point. RunWorkload runs
// every WorkloadDesigns entry over a small weighted two-function trace,
// then CXLfork over a plain two-function mix on its generated trace, and
// CXLfork-MoW on the same trace round-tripped through CSV as an
// explicit arrival list. Any change to calibration scenarios, design
// wiring, or trace generation moves them. CXLfork and CXLfork-MoW
// coincide on the weighted trace: dynamic tiering makes no promotion,
// so the two replays are event-for-event equal.
var goldenRunWorkload = map[string]string{
	"CXLfork":     "75385b74ba31cb0d",
	"CXLfork-MoW": "75385b74ba31cb0d",
	"CRIU-CXL":    "8ed843f754ec1372",
	"Mitosis-CXL": "0d4255c8524f33d9",
}

const (
	goldenRunWorkloadGenerated = "046b1df66728853a"
	goldenRunWorkloadExplicit  = "d05f049221fc310e"
)

func TestGoldenRunWorkloadDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration and replay are slow")
	}
	for _, d := range WorkloadDesigns {
		rep, err := RunWorkload(smallConfig(), Workload{
			Design:          d,
			RPS:             80,
			Duration:        4 * time.Second,
			Functions:       []string{"Float", "Json"},
			Weights:         map[string]float64{"Json": 3},
			KeepAlive:       time.Second,
			NodeBudgetBytes: 1 << 30,
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if rep.Fingerprint != goldenRunWorkload[d] {
			t.Errorf("%s: fingerprint %s, golden %s", d, rep.Fingerprint, goldenRunWorkload[d])
		}
	}
}

func TestGoldenRunWorkloadTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration and replay are slow")
	}
	wl := Workload{
		Functions: []string{"Float", "Json"},
		RPS:       40,
		Duration:  5 * time.Second,
		Seed:      3,
	}
	rep, err := RunWorkload(smallConfig(), wl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fingerprint != goldenRunWorkloadGenerated {
		t.Errorf("generated trace: fingerprint %s, golden %s", rep.Fingerprint, goldenRunWorkloadGenerated)
	}

	var csv bytes.Buffer
	if err := SaveTraceCSV(&csv, wl.Functions, wl.RPS, wl.Duration, wl.Seed); err != nil {
		t.Fatal(err)
	}
	if wl.Trace, err = LoadTraceCSV(&csv); err != nil {
		t.Fatal(err)
	}
	wl.Design = "CXLfork-MoW"
	if rep, err = RunWorkload(smallConfig(), wl, nil); err != nil {
		t.Fatal(err)
	}
	if rep.Fingerprint != goldenRunWorkloadExplicit {
		t.Errorf("explicit trace: fingerprint %s, golden %s", rep.Fingerprint, goldenRunWorkloadExplicit)
	}
}
