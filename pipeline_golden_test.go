package cxlfork

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"
)

// Constant pins for the facade's replay entry points. RunWorkload runs
// every WorkloadDesigns entry over a small weighted two-function trace;
// RunAutoscaler runs once on its generated trace and once on the same
// trace round-tripped through CSV as an explicit arrival list. Any change
// to calibration scenarios, design wiring, or trace generation moves
// them. CXLfork and CXLfork-MoW coincide at this load: dynamic tiering
// makes no promotion, so the two replays are event-for-event equal.
var goldenRunWorkload = map[string]string{
	"CXLfork":     "75385b74ba31cb0d",
	"CXLfork-MoW": "75385b74ba31cb0d",
	"CRIU-CXL":    "8ed843f754ec1372",
	"Mitosis-CXL": "0d4255c8524f33d9",
}

const (
	goldenAutoscaler         = 0x199e96e3a16d7088
	goldenAutoscalerExplicit = 0x8cb4fee19637b51c
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

// scalingFingerprint FNV-1a-folds every ScalingResults field, with the
// per-function map in name order.
func scalingFingerprint(r ScalingResults) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	fold := func(v uint64) {
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= prime
		}
	}
	fold(uint64(r.P50))
	fold(uint64(r.P99))
	fold(uint64(r.Mean))
	fns := make([]string, 0, len(r.PerFunctionP99))
	for fn := range r.PerFunctionP99 {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		fold(uint64(len(fn)))
		fold(uint64(r.PerFunctionP99[fn]))
	}
	for _, v := range []int{r.Completed, r.ColdForks, r.ScratchCold, r.WarmStarts, r.Evictions, r.Promotions} {
		fold(uint64(v))
	}
	fold(math.Float64bits(r.Throughput))
	return h
}

func TestGoldenAutoscaler(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscaler calibration is slow")
	}
	cfg := AutoscalerConfig{
		Mechanism:      CXLfork,
		DynamicTiering: true,
		Functions:      []string{"Float", "Json"},
		RPS:            40,
		Duration:       5 * time.Second,
		Seed:           3,
	}
	res, err := NewSystem(smallConfig()).RunAutoscaler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := scalingFingerprint(res); h != goldenAutoscaler {
		t.Errorf("generated trace: fingerprint %#x, golden %#x", h, uint64(goldenAutoscaler))
	}

	var csv bytes.Buffer
	if err := SaveTraceCSV(&csv, cfg.Functions, cfg.RPS, cfg.Duration, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	if cfg.Trace, err = LoadTraceCSV(&csv); err != nil {
		t.Fatal(err)
	}
	pol := MigrateOnWrite
	cfg.StaticPolicy, cfg.DynamicTiering = &pol, false
	res, err = NewSystem(smallConfig()).RunAutoscaler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := scalingFingerprint(res); h != goldenAutoscalerExplicit {
		t.Errorf("explicit trace: fingerprint %#x, golden %#x", h, uint64(goldenAutoscalerExplicit))
	}
}
