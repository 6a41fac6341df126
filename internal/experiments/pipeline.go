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

// Every porter replay in the repository — the facade's RunWorkload and
// RunAutoscaler, each experiment driver, the AzureBench trajectory leg —
// is the same calibrate→cluster→porter→trace sequence (DESIGN.md §13).
// The helpers below are its shared steps; each call site keeps only what
// is its own: the platform parameters, the fault schedule, and the grid
// it sweeps.

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
// checkpoints every spec on it, ready to replay a trace.
func NewPorter(c *cluster.Cluster, d Design, cfg porter.Config, specs []faas.Spec) (*porter.Porter, error) {
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

// scaledBytes is frac of footprint, rounded up to a whole page so
// frame-pool sizing stays exact.
func scaledBytes(p params.Params, footprint int64, frac float64) int64 {
	ps := int64(p.PageSize)
	return (int64(float64(footprint)*frac) + ps - 1) / ps * ps
}
