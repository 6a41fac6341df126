package cxlfork

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDeployFunctionRejectsBadNode covers the facade hardening: node
// indexes out of range return errors instead of panicking.
func TestDeployFunctionRejectsBadNode(t *testing.T) {
	sys := newSystem(t, smallConfig())
	for _, node := range []int{-1, sys.Nodes(), sys.Nodes() + 5} {
		if _, err := sys.DeployFunction(node, "Float"); err == nil {
			t.Fatalf("DeployFunction(%d) succeeded on a %d-node system", node, sys.Nodes())
		}
	}
	if _, err := sys.DeployFunction(0, "Float"); err != nil {
		t.Fatalf("in-range deploy failed: %v", err)
	}
}

func TestRestoreRejectsBadNode(t *testing.T) {
	sys := newSystem(t, smallConfig())
	fn := deployWarm(t, sys, "Float")
	ck, err := sys.Checkpoint(fn, CXLfork, "ck")
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []int{-1, sys.Nodes()} {
		if _, err := sys.Restore(node, ck, RestoreOptions{}); err == nil {
			t.Fatalf("Restore(%d) succeeded on a %d-node system", node, sys.Nodes())
		}
	}
	if _, err := sys.Restore(1, ck, RestoreOptions{}); err != nil {
		t.Fatalf("in-range restore failed: %v", err)
	}
}

// TestFacadeFaultAPI drives the public fault-injection surface
// end-to-end: crash during checkpoint, device recovery, revive, retry.
func TestFacadeFaultAPI(t *testing.T) {
	sys := newSystem(t, smallConfig())
	fn := deployWarm(t, sys, "Float")

	sys.InjectFault(FaultRule{Kind: CrashNode, Step: StepCheckpointGlobal, Node: 0})
	_, err := sys.Checkpoint(fn, CXLfork, "doomed")
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("checkpoint on crashing node: got %v, want ErrNodeDown", err)
	}
	if !sys.NodeIsDown(0) {
		t.Fatal("NodeIsDown(0) = false after crash")
	}
	st := sys.RecoverDevice()
	if st.Arenas != 1 || st.Total() <= 0 {
		t.Fatalf("RecoverDevice = %+v, want one torn arena", st)
	}

	sys.ReviveNode(0)
	if sys.NodeIsDown(0) {
		t.Fatal("node still down after ReviveNode")
	}
	ck, err := sys.Checkpoint(fn, CXLfork, "retry")
	if err != nil {
		t.Fatalf("checkpoint after revive: %v", err)
	}
	if _, err := sys.Restore(1, ck, RestoreOptions{}); err != nil {
		t.Fatalf("restore after recovery: %v", err)
	}

	fs := sys.FaultStats()
	if fs.Injected != 1 {
		t.Fatalf("Injected = %d, want 1", fs.Injected)
	}
	if fs.RecoveredBytes != st.Total() {
		t.Fatalf("RecoveredBytes = %d, recovered %d", fs.RecoveredBytes, st.Total())
	}
}

// TestFaultReplayIsDeterministic runs the same corruption scenario
// twice under one seed and checks identical outcomes and virtual times.
func TestFaultReplayIsDeterministic(t *testing.T) {
	run := func() (time.Duration, error) {
		cfg := smallConfig()
		cfg.Seed = 99
		sys := newSystem(t, cfg)
		fn := deployWarm(t, sys, "Float")
		sys.InjectFault(FaultRule{Kind: CorruptBlob, Step: StepCheckpointGlobal, Node: AnyNode})
		ck, err := sys.Checkpoint(fn, CXLfork, "poisoned")
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := sys.Restore(1, ck, RestoreOptions{})
		return sys.Now(), rerr
	}
	t1, err1 := run()
	t2, err2 := run()
	if !errors.Is(err1, ErrImageCorrupt) {
		t.Fatalf("corrupted restore: got %v, want ErrImageCorrupt", err1)
	}
	if t1 != t2 {
		t.Fatalf("virtual times differ: %v vs %v", t1, t2)
	}
	if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
		t.Fatalf("outcomes differ: %v vs %v", err1, err2)
	}
}

func TestDegradeFabricSlowsCheckpoint(t *testing.T) {
	elapsed := func(degrade bool) time.Duration {
		sys := newSystem(t, smallConfig())
		fn := deployWarm(t, sys, "Float")
		if degrade {
			sys.DegradeFabric(6, time.Hour)
		}
		start := sys.Now()
		if _, err := sys.Checkpoint(fn, CXLfork, "ck"); err != nil {
			t.Fatal(err)
		}
		return sys.Now() - start
	}
	slow, fast := elapsed(true), elapsed(false)
	if slow <= fast {
		t.Fatalf("degraded checkpoint %v not slower than %v", slow, fast)
	}
}

// TestRunWorkloadRejectsUnknownEvictPolicy: an eviction policy the
// porter does not know ends the run with an error, not a panic that
// takes down the caller's process.
func TestRunWorkloadRejectsUnknownEvictPolicy(t *testing.T) {
	cfg := smallConfig()
	cfg.Capacity.EvictPolicy = "fifo"
	_, err := RunWorkload(cfg, Workload{RPS: 20, Duration: time.Second, Functions: []string{"Float"}}, nil)
	if err == nil || !strings.Contains(err.Error(), `"fifo"`) {
		t.Fatalf("RunWorkload = %v, want an unknown eviction policy error", err)
	}
}

// TestRunWorkloadRejectsDuplicateFunction: a mix that lists a function
// twice ends the run with an error naming it under every design, not
// a provisioning failure after calibration or a replay that silently
// doubles the function's arrival share.
func TestRunWorkloadRejectsDuplicateFunction(t *testing.T) {
	for _, d := range WorkloadDesigns {
		_, err := RunWorkload(smallConfig(), Workload{
			Design: d, RPS: 20, Duration: 2 * time.Second,
			Functions: []string{"Float", "Float", "Json"},
		}, nil)
		if err == nil || !strings.Contains(err.Error(), `function "Float" listed twice`) {
			t.Errorf("%s: RunWorkload = %v, want an error naming the repeated Float", d, err)
		}
	}
}

// TestSaveTraceCSVRejectsBadFunctions: SaveTraceCSV refuses the
// function lists RunWorkload refuses, with the same error and before
// writing a byte, rather than saving a trace no replay accepts.
func TestSaveTraceCSVRejectsBadFunctions(t *testing.T) {
	for _, tc := range []struct {
		functions []string
		want      string
	}{
		{[]string{"Float", "Float", "Json"}, `function "Float" listed twice`},
		{[]string{"Float", "Nope"}, `unknown function "Nope"`},
	} {
		var csv bytes.Buffer
		err := SaveTraceCSV(&csv, tc.functions, 20, 2*time.Second, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: SaveTraceCSV = %v, want an error mentioning %s", tc.functions, err, tc.want)
		}
		if csv.Len() != 0 {
			t.Errorf("%v: wrote %d bytes before failing", tc.functions, csv.Len())
		}
	}
}

// TestRunWorkloadRejectsBadFabric: a placement policy other than hash
// or locality, or a topology that does not parse, ends the run with an
// error naming it, not a replay that silently places replicas by hash
// or a panic out of calibration. NewSystem refuses both the same way,
// not with a panic in the caller's process.
func TestRunWorkloadRejectsBadFabric(t *testing.T) {
	for _, tc := range []struct {
		fabric FabricConfig
		want   string
	}{
		{FabricConfig{Placement: "bogus"}, `unknown placement policy "bogus"`},
		{FabricConfig{Topology: "nonsense line"}, `unknown directive "nonsense"`},
	} {
		cfg := smallConfig()
		cfg.Fabric = tc.fabric
		_, err := RunWorkload(cfg, Workload{RPS: 20, Duration: time.Second, Functions: []string{"Float"}}, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("fabric %+v: RunWorkload = %v, want an error mentioning %s", tc.fabric, err, tc.want)
		}
		if sys, err := NewSystem(cfg); sys != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("fabric %+v: NewSystem = %v, %v, want an error mentioning %s", tc.fabric, sys, err, tc.want)
		}
	}
}
