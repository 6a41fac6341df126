package experiments

import (
	"fmt"
	"math/rand"

	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/criu"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/kernel"
	"cxlfork/internal/mitosis"
	"cxlfork/internal/params"
	"cxlfork/internal/rfork"
)

// Scenario names a cold-start configuration, matching the paper's bar
// labels.
type Scenario string

// Scenarios of Fig. 7/8.
const (
	ScenCold       Scenario = "Cold"
	ScenLocalFork  Scenario = "LocalFork"
	ScenCRIU       Scenario = "CRIU-CXL"
	ScenMitosis    Scenario = "Mitosis-CXL"
	ScenCXLfork    Scenario = "CXLfork"     // migrate-on-write (default)
	ScenCXLforkMoA Scenario = "CXLfork-MoA" // migrate-on-access
	ScenCXLforkHT  Scenario = "CXLfork-HT"  // hybrid tiering
)

// AllScenarios lists every scenario in presentation order.
var AllScenarios = []Scenario{
	ScenCold, ScenLocalFork, ScenCRIU, ScenMitosis,
	ScenCXLfork, ScenCXLforkMoA, ScenCXLforkHT,
}

// Measure is one (function, scenario) cold-start measurement.
type Measure struct {
	Function string
	Scenario Scenario

	// Checkpoint is the checkpoint-phase latency (zero for Cold and
	// LocalFork).
	Checkpoint des.Time
	// Restore is the restore-phase latency (fork latency for LocalFork,
	// state-initialization time for Cold).
	Restore des.Time
	// FaultTime is the time spent in page faults (all kinds, including
	// post-restore dirty prefetch) during the cold-start execution.
	FaultTime des.Time
	// Exec is the remaining execution time: E2E - Restore - FaultTime.
	Exec des.Time
	// E2E is the end-to-end cold-start execution time: restore plus the
	// first invocation.
	E2E des.Time
	// WarmSteady is the steady-state warm invocation time measured
	// after the cold start.
	WarmSteady des.Time
	// LocalPages is the node-local memory the child consumed (pool
	// delta at steady state).
	LocalPages int
	// Faults is the child's fault breakdown.
	Faults kernel.FaultStats
}

// FnMeasurement is every scenario's measurement for one function.
type FnMeasurement struct {
	Spec     faas.Spec
	ColdInit des.Time // state-initialization time alone (Fig. 6)
	ByScen   map[Scenario]Measure
}

// MeasureFunction runs the full cold-start measurement protocol for one
// function: build a steady-state parent on node 0, checkpoint it with
// each mechanism, and measure cold-start execution for every requested
// scenario with clones on node 1 (LocalFork stays on node 0, Cold runs
// on node 1). The measurement protocol mirrors §6.2: functions run
// unsandboxed and the checkpoint phase is excluded from E2E.
//
// The result depends only on p, spec and the set of scens, so an
// earlier call's measurement of the same inputs is returned from the
// process-wide calibration memo (memo.go). Every call returns its own
// copy; a caller may modify it freely.
func MeasureFunction(p params.Params, spec faas.Spec, scens []Scenario) (*FnMeasurement, error) {
	k := memoKey{p: p, spec: spec, scens: scenarioSet(scens)}
	if m, ok := calibration.get(k); ok {
		return m, nil
	}
	m, err := measureFunction(p, spec, scens)
	if err != nil {
		return nil, err
	}
	calibration.put(k, m)
	return m, nil
}

// measureFunction is MeasureFunction without the memo: it always
// measures.
func measureFunction(p params.Params, spec faas.Spec, scens []Scenario) (*FnMeasurement, error) {
	c, err := NewEnv(p, spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(42))
	out := &FnMeasurement{Spec: spec, ByScen: make(map[Scenario]Measure)}

	parent, coldInit, err := buildParent(c, spec, rng)
	if err != nil {
		return nil, err
	}
	out.ColdInit = coldInit

	want := make(map[Scenario]bool, len(scens))
	for _, s := range scens {
		want[s] = true
	}

	if want[ScenCold] {
		m, err := measureCold(c, spec, rng)
		if err != nil {
			return nil, err
		}
		out.ByScen[ScenCold] = m
	}

	if want[ScenCRIU] {
		mech := criu.New(c.CXLFS)
		m, err := measureRfork(c, spec, parent, mech, rfork.Options{}, ScenCRIU, rng)
		if err != nil {
			return nil, err
		}
		out.ByScen[ScenCRIU] = m
	}
	if want[ScenMitosis] {
		mech := mitosis.New()
		m, err := measureRfork(c, spec, parent, mech, rfork.Options{}, ScenMitosis, rng)
		if err != nil {
			return nil, err
		}
		out.ByScen[ScenMitosis] = m
	}
	if want[ScenCXLfork] || want[ScenCXLforkMoA] || want[ScenCXLforkHT] {
		mech := core.New(c.Dev)
		img, ckptLat, err := checkpointTimed(c, parent, mech, "cxlfork-"+spec.Name)
		if err != nil {
			return nil, err
		}
		policies := []struct {
			scen Scenario
			opts rfork.Options
		}{
			{ScenCXLfork, rfork.Options{Policy: rfork.MigrateOnWrite}},
			{ScenCXLforkMoA, rfork.Options{Policy: rfork.MigrateOnAccess}},
			{ScenCXLforkHT, rfork.Options{Policy: rfork.HybridTiering}},
		}
		for _, pc := range policies {
			if !want[pc.scen] {
				continue
			}
			m, err := measureRestore(c, spec, mech, img, pc.opts, pc.scen, rng)
			if err != nil {
				return nil, err
			}
			m.Checkpoint = ckptLat
			out.ByScen[pc.scen] = m
		}
		img.Release()
	}

	// LocalFork last: fork downgrades the parent's writable mappings.
	if want[ScenLocalFork] {
		m, err := measureLocalFork(c, spec, parent, rng)
		if err != nil {
			return nil, err
		}
		out.ByScen[ScenLocalFork] = m
	}
	return out, nil
}

// buildParent cold-starts the function on node 0, clears A/D after the
// first invocation, and warms it up to its 16th invocation (§5), so the
// checkpointed A/D bits capture the steady state.
func buildParent(c *cluster.Cluster, spec faas.Spec, rng *rand.Rand) (*faas.Instance, des.Time, error) {
	node := c.Node(0)
	in, err := faas.NewInstance(node, spec)
	if err != nil {
		return nil, 0, err
	}
	t0 := c.Eng.Now()
	if err := in.ColdInit(); err != nil {
		return nil, 0, err
	}
	coldInit := c.Eng.Now() - t0
	if err := in.PrepareParent(node.P.CheckpointAfter, rng); err != nil {
		return nil, 0, err
	}
	return in, coldInit, nil
}

// measureCold measures a vanilla cold start on node 1.
func measureCold(c *cluster.Cluster, spec faas.Spec, rng *rand.Rand) (Measure, error) {
	node := c.Node(1)
	node.LLC.Reset()
	node.TLB.Reset()
	used := node.Mem.UsedPages()
	t0 := c.Eng.Now()
	in, err := faas.NewInstance(node, spec)
	if err != nil {
		return Measure{}, err
	}
	if err := in.ColdInit(); err != nil {
		return Measure{}, err
	}
	restore := c.Eng.Now() - t0 // "restore" = state initialization
	faultsAtInit := in.Task.MM.Stats.Faults.Time
	if _, err := in.Invoke(rng); err != nil {
		return Measure{}, err
	}
	m := finishMeasure(c, spec, in, ScenCold, t0, restore, used, rng)
	// For Cold, fault time during init is part of "Restore"; report only
	// invocation-time faults in FaultTime to keep the breakdown additive.
	m.FaultTime = in.Task.MM.Stats.Faults.Time - faultsAtInit
	m.Exec = m.E2E - m.Restore - m.FaultTime
	in.Exit()
	return m, nil
}

// measureLocalFork forks the warm parent on its own node.
func measureLocalFork(c *cluster.Cluster, spec faas.Spec, parent *faas.Instance, rng *rand.Rand) (Measure, error) {
	node := c.Node(0)
	used := node.Mem.UsedPages()
	t0 := c.Eng.Now()
	child, err := node.Fork(parent.Task, spec.Name+"-child")
	if err != nil {
		return Measure{}, err
	}
	restore := c.Eng.Now() - t0
	in := faas.Adopt(child, spec)
	if _, err := in.Invoke(rng); err != nil {
		return Measure{}, err
	}
	m := finishMeasure(c, spec, in, ScenLocalFork, t0, restore, used, rng)
	in.Exit()
	return m, nil
}

// checkpointTimed checkpoints the parent, returning the image and the
// checkpoint-phase latency.
func checkpointTimed(c *cluster.Cluster, parent *faas.Instance, mech rfork.Mechanism, id string) (rfork.Image, des.Time, error) {
	t0 := c.Eng.Now()
	img, err := mech.Checkpoint(parent.Task, id)
	if err != nil {
		return nil, 0, err
	}
	return img, c.Eng.Now() - t0, nil
}

// measureRfork checkpoints with mech and measures one restore.
func measureRfork(c *cluster.Cluster, spec faas.Spec, parent *faas.Instance, mech rfork.Mechanism, opts rfork.Options, scen Scenario, rng *rand.Rand) (Measure, error) {
	img, ckptLat, err := checkpointTimed(c, parent, mech, fmt.Sprintf("%s-%s", mech.Name(), spec.Name))
	if err != nil {
		return Measure{}, err
	}
	m, err := measureRestore(c, spec, mech, img, opts, scen, rng)
	if err != nil {
		return Measure{}, err
	}
	m.Checkpoint = ckptLat
	img.Release()
	return m, nil
}

// measureRestore measures the cold-start execution of one clone restored
// on node 1.
func measureRestore(c *cluster.Cluster, spec faas.Spec, mech rfork.Mechanism, img rfork.Image, opts rfork.Options, scen Scenario, rng *rand.Rand) (Measure, error) {
	node := c.Node(1)
	node.LLC.Reset()
	node.TLB.Reset()
	used := node.Mem.UsedPages()

	t0 := c.Eng.Now()
	child := node.NewTask(spec.Name + "-clone")
	if err := mech.Restore(child, img, opts); err != nil {
		return Measure{}, err
	}
	// Post-restore prefetch work is charged to the fault budget, not the
	// restore phase a request observes (§4.2.1).
	restore := (c.Eng.Now() - t0) - child.MM.Stats.Faults.Time

	in := faas.Adopt(child, spec)
	if _, err := in.Invoke(rng); err != nil {
		return Measure{}, err
	}
	m := finishMeasure(c, spec, in, scen, t0, restore, used, rng)
	in.Exit()
	return m, nil
}

// finishMeasure computes the E2E breakdown and steady-state behaviour.
// It does not exit the instance (callers may need it afterwards).
func finishMeasure(c *cluster.Cluster, spec faas.Spec, in *faas.Instance, scen Scenario, t0 des.Time, restore des.Time, usedBefore int, rng *rand.Rand) Measure {
	node := in.Task.OS
	m := Measure{
		Function: spec.Name,
		Scenario: scen,
		Restore:  restore,
		E2E:      c.Eng.Now() - t0,
	}
	m.FaultTime = in.Task.MM.Stats.Faults.Time
	m.Exec = m.E2E - m.Restore - m.FaultTime

	// Steady state: three more invocations, last one is the warm time.
	var warm des.Time
	for i := 0; i < 3; i++ {
		d, err := in.Invoke(rng)
		if err != nil {
			break
		}
		warm = d
	}
	m.WarmSteady = warm
	m.LocalPages = node.Mem.UsedPages() - usedBefore
	m.Faults = in.Task.MM.Stats.Faults
	return m
}
