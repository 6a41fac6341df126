package porter_test

import (
	"testing"

	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
)

// faultyPorter builds a porter whose CXLfork mechanism is wired to the
// cluster fault plan, with rules injected before Setup runs.
func faultyPorter(t *testing.T, cxlBytes int64, rules []faultinject.Rule) (*porter.Porter, *cluster.Cluster) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = cxlBytes
	c := cluster.MustNew(p, 2)
	for _, r := range rules {
		c.Faults.Inject(r)
	}
	mech := core.New(c.Dev)
	mech.Faults = c.Faults
	cfg := porter.Config{
		Mechanism:       mech,
		Profiles:        profiles("CXLfork"),
		NodeBudgetBytes: 1 << 30,
		Seed:            1,
	}
	po := porter.New(c, cfg)
	if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	return po, c
}

// TestSetupRetriesAfterCrash is the crash-retry scenario: node 0 dies
// mid-checkpoint during provisioning. The porter recovers the torn
// arena off the device, retries on node 1, and the deployment then
// serves the whole trace with node 0 down.
func TestSetupRetriesAfterCrash(t *testing.T) {
	po, c := faultyPorter(t, 1<<30, []faultinject.Rule{{
		Kind: faultinject.CrashNode,
		Step: faultinject.StepCheckpointGlobal,
		Node: 0,
	}})
	if !c.Faults.NodeDown(0) {
		t.Fatal("node 0 not down after Setup")
	}
	if _, ok := po.Checkpoint("Tiny"); !ok {
		t.Fatal("retried checkpoint not published")
	}
	res := po.Run(steadyTrace(50, 20*des.Millisecond))
	if res.Completed != 50 {
		t.Fatalf("completed %d of 50", res.Completed)
	}
	if res.InjectedFaults < 1 {
		t.Fatalf("InjectedFaults = %d", res.InjectedFaults)
	}
	if res.Retries < 1 {
		t.Fatalf("Retries = %d, want >= 1", res.Retries)
	}
	if res.RecoveredBytes <= 0 {
		t.Fatalf("RecoveredBytes = %d, torn arena held frames", res.RecoveredBytes)
	}
	// The torn arena was fully garbage-collected: only the retried
	// checkpoint occupies the device.
	img, _ := po.Checkpoint("Tiny")
	if got := c.Dev.UsedBytes(); got != img.CXLBytes() {
		t.Fatalf("device holds %d bytes, checkpoint is %d", got, img.CXLBytes())
	}
}

// TestRestoreRetriesOnAlternateNode injects a crash at the porter's
// restore boundary: the first fork target dies, trySpawn excludes it and
// places the instance on the surviving node, and every request still
// completes.
func TestRestoreRetriesOnAlternateNode(t *testing.T) {
	po, c := faultyPorter(t, 1<<30, []faultinject.Rule{{
		Kind: faultinject.CrashNode,
		Step: faultinject.StepPorterRestore,
		Node: faultinject.AnyNode,
	}})
	res := po.Run(steadyTrace(40, 20*des.Millisecond))
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
	if res.Retries < 1 {
		t.Fatalf("Retries = %d, want >= 1", res.Retries)
	}
	down := 0
	for i := 0; i < 2; i++ {
		if c.Faults.NodeDown(i) {
			down++
		}
	}
	if down != 1 {
		t.Fatalf("%d nodes down, want exactly 1", down)
	}
}

// TestInjectedDeviceFullFallsBackToColdStarts makes every restore
// attempt hit a transient device-full: the autoscaler degrades to
// scratch cold starts, nothing escapes as an error, and the fallback
// counter records each degradation.
func TestInjectedDeviceFullFallsBackToColdStarts(t *testing.T) {
	po, _ := faultyPorter(t, 1<<30, []faultinject.Rule{{
		Kind:  faultinject.DeviceFull,
		Step:  faultinject.StepPorterRestore,
		Node:  faultinject.AnyNode,
		Count: 1 << 30,
	}})
	res := po.Run(steadyTrace(30, 30*des.Millisecond))
	if res.Completed != 30 {
		t.Fatalf("completed %d of 30", res.Completed)
	}
	if res.ColdForks != 0 {
		t.Fatalf("ColdForks = %d despite device-full on every restore", res.ColdForks)
	}
	if res.ScratchCold == 0 {
		t.Fatal("no scratch cold starts recorded")
	}
	if res.Fallbacks < 1 {
		t.Fatalf("Fallbacks = %d, want >= 1", res.Fallbacks)
	}
}

// TestFullDeviceDegradesToColdStarts is the acceptance scenario for a
// genuinely full device: CXL capacity too small for any checkpoint.
// Setup succeeds anyway (the function is marked for scratch cold
// starts), the trace completes without errors or panics, and the
// fallback counter records the degradation.
func TestFullDeviceDegradesToColdStarts(t *testing.T) {
	po, c := faultyPorter(t, 1<<20, nil) // 256 pages: no checkpoint fits
	if _, ok := po.Checkpoint("Tiny"); ok {
		t.Fatal("a checkpoint fit on a full device")
	}
	res := po.Run(steadyTrace(30, 30*des.Millisecond))
	if res.Completed != 30 {
		t.Fatalf("completed %d of 30", res.Completed)
	}
	if res.ScratchCold == 0 {
		t.Fatal("no scratch cold starts despite missing checkpoint")
	}
	if res.Fallbacks < 1 {
		t.Fatalf("Fallbacks = %d, want >= 1", res.Fallbacks)
	}
	// The failed checkpoint rolled back: the device is clean.
	if got := c.Dev.UsedBytes(); got != 0 {
		t.Fatalf("device retains %d bytes after rollback", got)
	}
}

// TestAllNodesDownFailsSetup verifies provisioning reports ErrNodeDown
// cleanly (no panic) when no node survives.
func TestAllNodesDownFailsSetup(t *testing.T) {
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 1 << 30
	c := cluster.MustNew(p, 2)
	c.Faults.CrashNode(0)
	c.Faults.CrashNode(1)
	mech := core.New(c.Dev)
	mech.Faults = c.Faults
	po := porter.New(c, porter.Config{
		Mechanism: mech,
		Profiles:  profiles("CXLfork"),
		Seed:      1,
	})
	err := po.Setup([]faas.Spec{tinySpec()})
	if err == nil {
		t.Fatal("Setup succeeded with every node down")
	}
}

// TestFabricDegradeDuringTrace opens a degradation window at the first
// porter restore and checks the run still completes every request.
func TestFabricDegradeDuringTrace(t *testing.T) {
	po, _ := faultyPorter(t, 1<<30, []faultinject.Rule{{
		Kind:   faultinject.FabricDegrade,
		Step:   faultinject.StepPorterRestore,
		Node:   faultinject.AnyNode,
		Factor: 4,
		Window: des.Second,
	}})
	res := po.Run(steadyTrace(40, 20*des.Millisecond))
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
	if res.InjectedFaults < 1 {
		t.Fatalf("InjectedFaults = %d", res.InjectedFaults)
	}
}
