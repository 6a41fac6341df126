package experiments

import (
	"hash/fnv"
	"testing"

	"cxlfork/internal/des"
)

// These goldens were captured on the pre-sharding sequential engine
// (single unified event queue, no worker pool) at the configs below.
// The equivalence contract of DESIGN.md §13: the sharded refactor and
// the SimWorkers fan-out must reproduce them byte for byte at every
// worker count — the refactor is provably neutral.
const (
	goldenFig10 = 0x5f05be03d90eeee1
	goldenLanes = 0xdbab6bb0ecd5cd5e
	goldenChaos = 0xfddeca430ae69311
	goldenSLO   = 0x5b9b91ce879b66fc
)

// goldenWorkerCounts are the SimWorkers values every golden runs at.
// Each golden empties the calibration memo before each count, so every
// count, and every -count=N rerun, calibrates afresh.
var goldenWorkerCounts = []int{1, 2, 8}

func TestGoldenFig10WorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	for _, workers := range goldenWorkerCounts {
		resetCalibrationMemo()
		p := ExpParams()
		p.SimWorkers = workers
		cfg := DefaultFig10Config()
		cfg.Duration = 5 * des.Second
		cfg.RPS = 40
		cfg.Functions = []string{"Float", "Json"}
		cfg.MemoryFractions = []float64{1.0, 0.25}
		r, err := Fig10(p, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := fnv.New64a()
		for _, run := range r.Runs {
			fpFold(h, run.Results.Fingerprint(), uint64(run.P50), uint64(run.P99))
		}
		if got := h.Sum64(); got != uint64(goldenFig10) {
			t.Fatalf("workers=%d: fig10 fingerprint %#x, golden %#x", workers, got, uint64(goldenFig10))
		}
	}
}

func TestGoldenLanesWorkerEquivalence(t *testing.T) {
	for _, workers := range goldenWorkerCounts {
		resetCalibrationMemo()
		p := ExpParams()
		p.SimWorkers = workers
		r, err := LaneSweep(p, "Float", []int{1, 2, 4})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := fnv.New64a()
		for _, pt := range r.Points {
			fpFold(h, uint64(pt.Lanes), uint64(pt.Checkpoint), uint64(pt.Recheckpoint),
				uint64(pt.Restore), uint64(pt.Pages), uint64(pt.DedupHits),
				uint64(pt.DedupMisses), uint64(pt.DedupBytesSaved))
		}
		if got := h.Sum64(); got != uint64(goldenLanes) {
			t.Fatalf("workers=%d: lanes fingerprint %#x, golden %#x", workers, got, uint64(goldenLanes))
		}
	}
}

func TestGoldenChaosWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	for _, workers := range goldenWorkerCounts {
		resetCalibrationMemo()
		p := ExpParams()
		p.SimWorkers = workers
		cfg := smallChaosConfig()
		r, err := Chaos(p, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := fnv.New64a()
		for _, run := range r.Runs {
			fpFold(h, uint64(run.Factor), uint64(int64(run.Killed)), run.Fingerprint)
		}
		if got := h.Sum64(); got != uint64(goldenChaos) {
			t.Fatalf("workers=%d: chaos fingerprint %#x, golden %#x", workers, got, uint64(goldenChaos))
		}
	}
}

func TestGoldenSLOWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	for _, workers := range goldenWorkerCounts {
		resetCalibrationMemo()
		p := ExpParams()
		p.SimWorkers = workers
		cfg := DefaultSLOConfig()
		cfg.RPS = 40
		cfg.Duration = 20 * des.Second
		cfg.Functions = []string{"Float", "Json", "Rnn", "Chameleon"}
		cfg.Weights = nil
		cfg.DeviceFrac = 0.6
		cfg.Occupancy = 0.40
		cfg.LowWatermark = 0.30
		r, err := SLO(p, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := fnv.New64a()
		fpFold(h, r.Observe.Results.Fingerprint(), r.Drive.Results.Fingerprint())
		if got := h.Sum64(); got != uint64(goldenSLO) {
			t.Fatalf("workers=%d: slo fingerprint %#x, golden %#x", workers, got, uint64(goldenSLO))
		}
	}
}
