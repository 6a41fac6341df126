package experiments

import (
	"testing"

	"cxlfork/internal/des"
)

// Constant pins for the two replay pipelines the worker goldens do not
// cover: a trimmed capacity sweep (footprint probe plus one replay per
// policy and device size) and a scaled-down AzureBench (the trajectory
// harness' replay leg). Both fold virtual-time facts only, so any change
// to calibration scenarios, design wiring, or trace generation moves
// them.
const (
	goldenCapacity   = 0xd6eb30b0d5e98518
	goldenAzureBench = 0x8cb0c9402955e0f8
)

func TestGoldenCapacityPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	cfg := smallCapacityConfig()
	cfg.Duration = 8 * des.Second
	cfg.DeviceFractions = []float64{1.0, 0.5}
	cfg.Policies = []string{"lru", "costbenefit"}
	cfg.Weights = map[string]float64{"Json": 3}
	r, err := Capacity(ExpParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(fpOffset)
	fpFold(&h, uint64(r.FootprintBytes))
	for _, run := range r.Runs {
		fpFold(&h, uint64(run.DeviceBytes), run.Fingerprint, uint64(run.ColdP99))
	}
	if h != uint64(goldenCapacity) {
		t.Fatalf("capacity fingerprint %#x, golden %#x", h, uint64(goldenCapacity))
	}
}

func TestGoldenAzureBenchPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	cfg := DefaultAzureBenchConfig()
	cfg.Requests = 20_000
	cfg.Duration = 8 * des.Second
	r, err := AzureBench(ExpParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(fpOffset)
	fpFold(&h, uint64(r.Arrivals), uint64(r.Completed), r.Events, uint64(r.SimTime), r.Fingerprint)
	if h != uint64(goldenAzureBench) {
		t.Fatalf("azurebench fingerprint %#x (arrivals %d, events %d), golden %#x",
			h, r.Arrivals, r.Events, uint64(goldenAzureBench))
	}
}
