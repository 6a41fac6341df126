package experiments

import (
	"runtime"
	"time"

	"cxlfork/internal/cluster"
	"cxlfork/internal/des"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
)

// AzureBench replays a large seeded Azure trace through a full porter
// cluster and measures engine throughput — the cluster-replay leg of
// the cxlbench trajectory (DESIGN.md §13). It exercises the entire
// stack: kernel page tables, checkpoint lanes, scheduler, replica layer.

// AzureBenchConfig sizes the replay.
type AzureBenchConfig struct {
	// Requests is the target trace arrival count (the generated trace
	// is seeded and virtual-time-spaced, so the realized count is
	// deterministic for a given config).
	Requests int
	// Duration is the virtual trace length the arrivals spread over.
	Duration des.Time
	// Nodes is the cluster size.
	Nodes int
	// Seed drives trace generation.
	Seed int64
}

// DefaultAzureBenchConfig is the trajectory harness' million-request
// cluster run (ROADMAP: "a million-request cluster run in single-digit
// wall-clock seconds").
func DefaultAzureBenchConfig() AzureBenchConfig {
	return AzureBenchConfig{
		Requests: 1_000_000,
		Duration: 400 * des.Second,
		Nodes:    4,
		Seed:     7,
	}
}

// AzureBenchResult is the replay's measurements. Completed, Events,
// SimTime and Fingerprint are virtual-time facts — byte-reproducible on
// any machine; Wall and the derived rates are host-dependent.
type AzureBenchResult struct {
	Cfg            AzureBenchConfig
	Arrivals       int
	Completed      int
	Events         uint64
	SimTime        des.Time
	Wall           time.Duration
	AllocsPerEvent float64
	Fingerprint    uint64
}

// EventsPerSec is the dispatch throughput over the host wall clock.
func (r *AzureBenchResult) EventsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Events) / r.Wall.Seconds()
}

// SimSecPerWallSec is how much virtual time one wall second buys.
func (r *AzureBenchResult) SimSecPerWallSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return r.SimTime.Seconds() / r.Wall.Seconds()
}

// AzureBench calibrates profiles mechanistically, then replays the
// trace through a CXLfork migrate-on-write porter and measures the
// engine. The replay itself is the timed region; calibration and trace
// generation are excluded.
func AzureBench(p params.Params, cfg AzureBenchConfig) (*AzureBenchResult, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = des.Second
	}
	specs, err := ResolveFunctions([]string{"Float", "Json"})
	if err != nil {
		return nil, err
	}
	profiles, err := Calibrate(p, specs, DesignCXLforkMoW.Scenarios())
	if err != nil {
		return nil, err
	}

	c := cluster.MustNew(p, cfg.Nodes)
	po, err := NewPorter(c, DesignCXLforkMoW, porter.Config{
		Profiles:        profiles,
		Seed:            cfg.Seed,
		NodeBudgetBytes: 12 << 30,
	}, specs)
	if err != nil {
		return nil, err
	}
	trace := GenerateTrace(SpecNames(specs), nil, float64(cfg.Requests)/cfg.Duration.Seconds(), cfg.Duration, cfg.Seed)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	results := po.Run(trace)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	res := &AzureBenchResult{
		Cfg:         cfg,
		Arrivals:    len(trace),
		Completed:   results.Completed,
		Events:      c.Eng.Executed(),
		SimTime:     results.Duration,
		Wall:        wall,
		Fingerprint: results.Fingerprint(),
	}
	if res.Events > 0 {
		res.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(res.Events)
	}
	return res, nil
}
