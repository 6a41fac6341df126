package cxlfork

import (
	"fmt"
	"io"
	"time"

	"cxlfork/internal/azure"
	"cxlfork/internal/des"
	"cxlfork/internal/experiments"
	"cxlfork/internal/porter"
	"cxlfork/internal/rfork"
)

// AutoscalerConfig tunes a CXLporter deployment (paper §5).
type AutoscalerConfig struct {
	// Mechanism is the remote-fork design used to spawn instances.
	Mechanism MechanismKind
	// StaticPolicy pins the tiering policy; nil enables the dynamic
	// SLO/memory-driven adaptation when DynamicTiering is set.
	StaticPolicy *TieringPolicy
	// DynamicTiering enables the adaptive policy controller.
	DynamicTiering bool
	// Functions is the workload mix (default: the full Table-1 suite).
	Functions []string
	// RPS is the aggregate arrival rate (paper: 150).
	RPS float64
	// Duration is the trace length in virtual time.
	Duration time.Duration
	// NodeBudget is the per-node memory budget in bytes (0: node DRAM).
	NodeBudget int64
	// Seed drives trace generation and jitter.
	Seed int64
	// Trace, when non-empty, replaces the built-in bursty generator
	// with explicit arrivals (e.g. loaded from a production trace CSV
	// via LoadTraceCSV). Every function it names must be in the
	// workload mix: Functions, or the Table-1 suite when Functions is
	// empty. RunAutoscaler rejects a trace that names any other.
	Trace []Arrival
}

// Arrival is one request arrival of an explicit trace.
type Arrival struct {
	At       time.Duration
	Function string
}

// ScalingResults summarizes an autoscaler trace replay.
type ScalingResults struct {
	P50, P99, Mean time.Duration
	PerFunctionP99 map[string]time.Duration
	Completed      int
	ColdForks      int
	ScratchCold    int
	WarmStarts     int
	Evictions      int
	Promotions     int
	// Throughput is requests completed within the arrival window per
	// second of makespan.
	Throughput float64
}

// LoadTraceCSV reads an explicit arrival trace ("seconds,function" CSV,
// header optional) for AutoscalerConfig.Trace.
func LoadTraceCSV(r io.Reader) ([]Arrival, error) {
	reqs, err := azure.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	out := make([]Arrival, len(reqs))
	for i, rq := range reqs {
		out[i] = Arrival{At: time.Duration(rq.At), Function: rq.Function}
	}
	return out, nil
}

// SaveTraceCSV writes a synthetic bursty trace over the given functions
// so it can be inspected or replayed elsewhere.
func SaveTraceCSV(w io.Writer, functions []string, rps float64, duration time.Duration, seed int64) error {
	return azure.WriteCSV(w, experiments.GenerateTrace(functions, nil, rps, des.Time(duration), seed))
}

// RunAutoscaler deploys CXLporter on the system, checkpoints every
// function in the mix, replays a bursty arrival trace (an Azure-like
// MMPP), and reports latency percentiles. Profiles for the queue model
// are calibrated with mechanistic single-instance runs first, so the
// call is self-contained but not cheap.
func (s *System) RunAutoscaler(cfg AutoscalerConfig) (ScalingResults, error) {
	if cfg.RPS <= 0 {
		cfg.RPS = 150
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Second
	}
	specs, err := experiments.ResolveFunctions(cfg.Functions)
	if err != nil {
		return ScalingResults{}, fmt.Errorf("cxlfork: %w", err)
	}
	// Only the mix is provisioned, so check the trace before paying for
	// calibration.
	if len(cfg.Trace) > 0 {
		mix := make(map[string]bool, len(specs))
		for _, sp := range specs {
			mix[sp.Name] = true
		}
		for _, a := range cfg.Trace {
			if !mix[a.Function] {
				return ScalingResults{}, fmt.Errorf("cxlfork: trace names function %q, which is not in the workload mix", a.Function)
			}
		}
	}
	profiles, err := experiments.Calibrate(s.c.P, specs, experiments.AllScenarios)
	if err != nil {
		return ScalingResults{}, fmt.Errorf("cxlfork: calibrating profiles: %w", err)
	}

	pcfg := porter.Config{
		Mechanism:       s.mech[cfg.Mechanism],
		Profiles:        profiles,
		DynamicTiering:  cfg.DynamicTiering,
		NodeBudgetBytes: cfg.NodeBudget,
		Seed:            cfg.Seed,
	}
	if cfg.StaticPolicy != nil {
		pol := rfork.Policy(*cfg.StaticPolicy)
		pcfg.StaticPolicy = &pol
	}
	po := porter.New(s.c, pcfg)
	if err := po.Setup(specs); err != nil {
		return ScalingResults{}, err
	}
	var trace []azure.Request
	if len(cfg.Trace) > 0 {
		for _, a := range cfg.Trace {
			trace = append(trace, azure.Request{At: des.Time(a.At), Function: a.Function})
		}
	} else {
		trace = experiments.GenerateTrace(experiments.SpecNames(specs), nil, cfg.RPS, des.Time(cfg.Duration), cfg.Seed)
	}
	res := po.Run(trace)

	out := ScalingResults{
		P50:            time.Duration(res.Overall.P50()),
		P99:            time.Duration(res.Overall.P99()),
		Mean:           time.Duration(res.Overall.Mean()),
		PerFunctionP99: make(map[string]time.Duration),
		Completed:      res.Completed,
		ColdForks:      res.ColdForks,
		ScratchCold:    res.ScratchCold,
		WarmStarts:     res.WarmStarts,
		Evictions:      res.Evictions,
		Promotions:     res.PolicyPromotions,
		Throughput:     res.Throughput(),
	}
	for fn, rec := range res.PerFunction {
		if rec.Count() > 0 {
			out.PerFunctionP99[fn] = time.Duration(rec.P99())
		}
	}
	return out, nil
}
