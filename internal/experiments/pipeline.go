package experiments

import (
	"fmt"

	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/criu"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/mitosis"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
	"cxlfork/internal/rfork"
)

// Every porter replay in this module — the facade's RunWorkload,
// each experiment driver, the AzureBench trajectory leg — is the same
// calibrate→cluster→porter→trace sequence (DESIGN.md §13).
// NewLeg assembles it once; each experiment keeps only what is its own:
// the platform parameters, the fault schedule, and the grid it sweeps
// through sweep.

// Design names one rfork configuration of Fig. 10.
type Design string

// Fig. 10 designs.
const (
	DesignCRIU       Design = "CRIU-CXL"
	DesignMitosis    Design = "Mitosis-CXL"
	DesignCXLforkMoW Design = "CXLfork-MoW" // static migrate-on-write
	DesignCXLfork    Design = "CXLfork"     // dynamic tiering (§5)
)

// Scenarios returns the calibration scenarios d's porter profiles need,
// or nil for an unknown design: every design measures the scratch cold
// start plus its own mechanism; dynamic tiering additionally needs the
// MoA and hybrid policies it adapts across.
func (d Design) Scenarios() []Scenario {
	switch d {
	case DesignCXLfork:
		return []Scenario{ScenCold, ScenCXLfork, ScenCXLforkMoA, ScenCXLforkHT}
	case DesignCXLforkMoW:
		return []Scenario{ScenCold, ScenCXLfork}
	case DesignCRIU:
		return []Scenario{ScenCold, ScenCRIU}
	case DesignMitosis:
		return []Scenario{ScenCold, ScenMitosis}
	}
	return nil
}

// NewPorter builds a porter on c that scales with design d — cfg supplies
// everything but the mechanism and tiering policy, which d selects — and
// checkpoints every spec on it, ready to replay a trace. An eviction
// policy porter.ParseEvictPolicy refuses is an error here, not a panic
// in porter.New.
func NewPorter(c *cluster.Cluster, d Design, cfg porter.Config, specs []faas.Spec) (*porter.Porter, error) {
	if _, err := porter.ParseEvictPolicy(c.P.EvictPolicy); err != nil {
		return nil, err
	}
	switch d {
	case DesignCRIU:
		cfg.Mechanism = criu.New(c.CXLFS)
	case DesignMitosis:
		cfg.Mechanism = mitosis.New()
	case DesignCXLforkMoW:
		cfg.Mechanism = core.New(c.Dev)
		pol := rfork.MigrateOnWrite
		cfg.StaticPolicy = &pol
	case DesignCXLfork:
		cfg.Mechanism = core.New(c.Dev)
		cfg.DynamicTiering = true
	default:
		return nil, fmt.Errorf("unknown design %q", d)
	}
	po := porter.New(c, cfg)
	if err := po.Setup(specs); err != nil {
		return nil, err
	}
	return po, nil
}

// ResolveFunctions returns the workload specs for names, in order; no
// names means the full Table-1 suite.
func ResolveFunctions(names []string) ([]faas.Spec, error) {
	if len(names) == 0 {
		return faas.Suite(), nil
	}
	specs := make([]faas.Spec, 0, len(names))
	for _, name := range names {
		s, ok := faas.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown function %q", name)
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// SpecNames returns the specs' function names, in order.
func SpecNames(specs []faas.Spec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Calibrate measures specs under scens with mechanistic single-instance
// runs and converts the measurements into porter profiles. The scenario
// list is part of the result, not just a filter: MeasureFunction shares
// one cluster and one rng across a function's scenarios.
func Calibrate(p params.Params, specs []faas.Spec, scens []Scenario) (map[porter.ProfileKey]porter.Profile, error) {
	ms, err := MeasureAll(p, specs, scens)
	if err != nil {
		return nil, err
	}
	return BuildProfiles(ms), nil
}

// GenerateTrace is the seeded bursty (Azure-like MMPP) arrival trace over
// the named functions at rps for dur. weights overrides per-function
// request shares; unlisted functions keep their default share.
func GenerateTrace(names []string, weights map[string]float64, rps float64, dur des.Time, seed int64) []azure.Request {
	loads := azure.DefaultLoads(names)
	for i := range loads {
		if w, ok := weights[loads[i].Function]; ok {
			loads[i].Weight = w
		}
	}
	return azure.Generate(azure.TraceConfig{TotalRPS: rps, Duration: dur, Loads: loads, Seed: seed})
}

// Workload is the replayed trace's shape: the seeded bursty arrivals,
// or an explicit trace, and the keep-alive window they replay under.
// Every porter experiment embeds one and sweeps its own knob over it.
type Workload struct {
	// RPS is the aggregate request rate.
	RPS float64
	// Duration is the replayed trace length.
	Duration des.Time
	// KeepAlive overrides the idle keep-alive window when non-zero.
	KeepAlive des.Time
	// Functions restricts the workload mix (default: full suite).
	Functions []string
	// Weights overrides per-function request shares; unlisted functions
	// keep their default share.
	Weights map[string]float64
	// Seed drives trace generation and jitter.
	Seed int64
	// Trace, when non-empty, is replayed in place of the generated
	// trace; RPS, Duration and Weights then go unused. Every function
	// it names must be among the leg's specs.
	Trace []azure.Request
}

// calibrated resolves wl's functions and calibrates them under scens.
func calibrated(p params.Params, wl Workload, scens []Scenario) ([]faas.Spec, map[porter.ProfileKey]porter.Profile, error) {
	specs, err := ResolveFunctions(wl.Functions)
	if err != nil {
		return nil, nil, err
	}
	profiles, err := Calibrate(p, specs, scens)
	if err != nil {
		return nil, nil, err
	}
	return specs, profiles, nil
}

// Leg is one replay, assembled and not yet run: a fresh cluster, a
// porter provisioned on it, and the trace it replays.
type Leg struct {
	// C is the leg's own cluster and engine.
	C *cluster.Cluster
	// Porter runs on C, with every spec already checkpointed.
	Porter *porter.Porter
	// Trace is the arrival stream Run replays.
	Trace []azure.Request
}

// NewLeg assembles one replay of wl: it applies wl.KeepAlive to p,
// builds a nodes-node cluster, provisions a design-d porter with a
// per-node budget of budget bytes (0 keeps node DRAM), and generates
// the trace unless wl carries one. A caller that injects faults or installs observers does so
// between NewLeg and Run.
func NewLeg(p params.Params, nodes int, d Design, wl Workload, budget int64, specs []faas.Spec, profiles map[porter.ProfileKey]porter.Profile) (*Leg, error) {
	if wl.KeepAlive > 0 {
		p.KeepAlive = wl.KeepAlive
	}
	c, err := cluster.New(p, nodes)
	if err != nil {
		return nil, err
	}
	po, err := NewPorter(c, d, porter.Config{Profiles: profiles, Seed: wl.Seed, NodeBudgetBytes: budget}, specs)
	if err != nil {
		return nil, err
	}
	trace := wl.Trace
	if len(trace) == 0 {
		trace = GenerateTrace(SpecNames(specs), wl.Weights, wl.RPS, wl.Duration, wl.Seed)
	}
	return &Leg{C: c, Porter: po, Trace: trace}, nil
}

// Run replays the leg's trace.
func (l *Leg) Run() porter.Results { return l.Porter.Run(l.Trace) }

// sweep runs cell(i) for every i in [0, n) on p.SimWorkers goroutines
// (des.Pool). Cells must be independent: each builds its own cluster
// and engine. Results come back in index order, so a report is
// byte-identical at any worker count; on failure sweep returns the
// lowest-index failing cell's error.
func sweep[T any](p params.Params, n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	des.NewPool(p.SimWorkers).Each(n, func(i int) { out[i], errs[i] = cell(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fpOffset seeds an fpFold hash.
const fpOffset = 14695981039346656037

// fpFold FNV-1a-folds 64-bit words into *h byte by byte, with porter's
// fingerprint constants, so every experiment fold and golden reads as
// one hash family.
func fpFold(h *uint64, vs ...uint64) {
	const prime = 1099511628211
	for _, v := range vs {
		for b := 0; b < 8; b++ {
			*h ^= (v >> (8 * b)) & 0xff
			*h *= prime
		}
	}
}

// scaledBytes is frac of footprint, rounded up to a whole page so
// frame-pool sizing stays exact.
func scaledBytes(p params.Params, footprint int64, frac float64) int64 {
	ps := int64(p.PageSize)
	return (int64(float64(footprint)*frac) + ps - 1) / ps * ps
}
