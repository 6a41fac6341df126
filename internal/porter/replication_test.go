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

// replicatedPorter builds a porter over a multi-device pool with a
// short keep-alive, so nearly every request pays a restore and the
// failover path is exercised after a device loss. tweak adjusts params
// before the cluster is built; rules are injected before Setup.
func replicatedPorter(t *testing.T, devices, rf int, rules []faultinject.Rule, tweak func(*params.Params)) (*porter.Porter, *cluster.Cluster) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 1 << 30
	p.CXLDevices = devices
	p.ReplicationFactor = rf
	p.KeepAlive = 50 * des.Millisecond
	if tweak != nil {
		tweak(&p)
	}
	c := cluster.MustNew(p, 2)
	for _, r := range rules {
		c.Faults.Inject(r)
	}
	mech := core.New(c.Dev)
	mech.Faults = c.Faults
	po := porter.New(c, porter.Config{
		Mechanism:       mech,
		Profiles:        profiles("CXLfork"),
		NodeBudgetBytes: 1 << 30,
		Seed:            1,
	})
	if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	return po, c
}

// killRule kills one pool device at a virtual offset into the run.
func killRule(dev int, at des.Time) faultinject.Rule {
	return faultinject.Rule{Kind: faultinject.DeviceLoss, Device: dev, At: at}
}

// TestReplicatedRestoreSurvivesDeviceLoss is the acceptance scenario:
// at RF 2 the ingest device dies mid-trace, every restore fails over to
// the surviving replica (zero failed restores), and the repair loop
// re-establishes the factor before the run ends.
func TestReplicatedRestoreSurvivesDeviceLoss(t *testing.T) {
	po, _ := replicatedPorter(t, 3, 2, []faultinject.Rule{killRule(0, 2100*des.Millisecond)}, nil)
	res := po.Run(steadyTrace(40, 200*des.Millisecond))
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
	if res.FailedRestores != 0 {
		t.Fatalf("FailedRestores = %d, want 0 at RF 2", res.FailedRestores)
	}
	if res.LostImages != 0 {
		t.Fatalf("LostImages = %d, want 0 at RF 2", res.LostImages)
	}
	if res.ReplicasPlaced < 2 {
		t.Fatalf("ReplicasPlaced = %d, want >= 2", res.ReplicasPlaced)
	}
	if res.Failovers == 0 {
		t.Fatal("no failovers despite restores against a dead preferred replica")
	}
	if !res.RepairConvergedOK {
		t.Fatalf("repair did not converge (deficit %d)", res.UnderReplicated)
	}
	if res.UnderReplicated != 0 {
		t.Fatalf("run ended under-replicated by %d", res.UnderReplicated)
	}
	if res.RepairedPages == 0 {
		t.Fatal("repair converged without copying any pages")
	}
}

// TestSingleCopyLosesImagesOnDeviceLoss is the RF 1 contrast: the only
// copy rides the ingest device, so killing it loses the image for good
// and the function degrades to scratch cold starts.
func TestSingleCopyLosesImagesOnDeviceLoss(t *testing.T) {
	po, _ := replicatedPorter(t, 3, 1, []faultinject.Rule{killRule(0, 2100*des.Millisecond)}, nil)
	res := po.Run(steadyTrace(40, 200*des.Millisecond))
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
	if res.LostImages == 0 {
		t.Fatal("LostImages = 0, want > 0 at RF 1")
	}
	if res.FailedRestores == 0 {
		t.Fatal("FailedRestores = 0, want > 0 at RF 1")
	}
	if res.ScratchCold == 0 {
		t.Fatal("no scratch cold starts after losing the only copy")
	}
}

// TestBackoffScheduleIsByteIdentical is the deterministic-backoff
// regression test: two identically-seeded runs with a device-loss fault
// enabled must charge byte-identical backoff schedules and produce the
// same results fingerprint.
func TestBackoffScheduleIsByteIdentical(t *testing.T) {
	run := func() (uint64, []des.Time) {
		po, _ := replicatedPorter(t, 3, 2, []faultinject.Rule{killRule(0, 2100*des.Millisecond)}, nil)
		res := po.Run(steadyTrace(40, 200*des.Millisecond))
		return res.Fingerprint(), po.BackoffSchedule()
	}
	fpA, schedA := run()
	fpB, schedB := run()
	if fpA != fpB {
		t.Fatalf("same seed, different fingerprints: %#x vs %#x", fpA, fpB)
	}
	if len(schedA) == 0 {
		t.Fatal("no backoffs charged despite failovers")
	}
	if len(schedA) != len(schedB) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(schedA), len(schedB))
	}
	for i := range schedA {
		if schedA[i] != schedB[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, schedA[i], schedB[i])
		}
	}
	// The capped exponential never exceeds its configured bound.
	bound := params.RestoreRetryBackoffCap
	for i, d := range schedA {
		if d > bound {
			t.Fatalf("backoff %d = %v exceeds cap %v", i, d, bound)
		}
	}
}

// TestRetryExhaustedCountsDistinctly drives a request's retry budget to
// zero via replica failover probes: at RF 3 with budget 1, two dead
// devices ahead of the surviving replica exhaust the budget and the
// request degrades to a scratch cold start, counted in the distinct
// retry_exhausted counter — never as a failed restore. The image's ring
// order decides which kill pair puts two dead devices first, so both
// pairs run and the exhaustion must appear in exactly the sweep.
func TestRetryExhaustedCountsDistinctly(t *testing.T) {
	var exhausted int64
	for _, second := range []int{1, 2} {
		rules := []faultinject.Rule{
			killRule(0, 2*des.Second),
			killRule(second, 2*des.Second),
		}
		po, _ := replicatedPorter(t, 3, 3, rules, func(p *params.Params) {
			p.RestoreRetryBudget = 1
			// Park the repair loop: exhaustion needs the dead replicas
			// to stay ahead of the survivor for the whole run.
			p.RepairPeriod = 10 * des.Minute
		})
		res := po.Run(steadyTrace(40, 200*des.Millisecond))
		if res.Completed != 40 {
			t.Fatalf("kill={0,%d}: completed %d of 40", second, res.Completed)
		}
		if res.FailedRestores != 0 {
			t.Fatalf("kill={0,%d}: FailedRestores = %d, want 0 (one replica survives)", second, res.FailedRestores)
		}
		if res.LostImages != 0 {
			t.Fatalf("kill={0,%d}: LostImages = %d, want 0", second, res.LostImages)
		}
		if res.RetryExhausted > 0 && res.ScratchCold == 0 {
			t.Fatalf("kill={0,%d}: exhausted requests did not degrade to scratch", second)
		}
		exhausted += res.RetryExhausted
	}
	if exhausted == 0 {
		t.Fatal("no run exhausted its retry budget despite two dead devices at budget 1")
	}
}

// TestPressureShedsReplicasBeforeEvicting sizes the pool so an RF 2
// publication lands right at the high watermark: the reclaim ladder
// must shed surplus replicas first (ReplicasShed > 0), and no restore
// may ever fail — shedding stops at the last healthy copy.
func TestPressureShedsReplicasBeforeEvicting(t *testing.T) {
	po, _ := replicatedPorter(t, 2, 2, nil, func(p *params.Params) {
		// ~9 MiB per device against an ~8 MiB checkpoint: both devices
		// sit above the 0.90 watermark once the factor-2 copies land.
		p.CXLBytes = 18 << 20
	})
	res := po.Run(steadyTrace(40, 200*des.Millisecond))
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
	if res.ReplicasShed == 0 {
		t.Fatal("pressure never shed a replica")
	}
	if res.FailedRestores != 0 {
		t.Fatalf("FailedRestores = %d, want 0 — shedding must never drop the last copy", res.FailedRestores)
	}
	if res.LostImages != 0 {
		t.Fatalf("LostImages = %d, want 0", res.LostImages)
	}
}

// TestDegradedRestoreBlameIsUnattributed pins the blame-accounting fix
// for degrade-to-scratch: the probe and backoff time a request accrues
// before exhausting its retry budget never reaches the restore-latency
// recorder, so attribution must bank it in the unattributed counter
// instead of dropping it silently — while changing nothing simulated.
func TestDegradedRestoreBlameIsUnattributed(t *testing.T) {
	run := func(attributed bool) (porter.Results, *cluster.Cluster) {
		rules := []faultinject.Rule{
			killRule(0, 2*des.Second),
			killRule(1, 2*des.Second),
		}
		po, c := replicatedPorter(t, 3, 3, rules, func(p *params.Params) {
			p.RestoreRetryBudget = 1
			p.RepairPeriod = 10 * des.Minute
			p.XRayEnabled = attributed
		})
		return po.Run(steadyTrace(40, 200*des.Millisecond)), c
	}
	plain, _ := run(false)
	res, c := run(true)
	if res.Fingerprint() != plain.Fingerprint() {
		t.Fatalf("attribution perturbed the replay: %#x != %#x",
			res.Fingerprint(), plain.Fingerprint())
	}
	if res.RetryExhausted == 0 || res.ScratchCold == 0 {
		t.Fatalf("scenario did not degrade: exhausted=%d scratch=%d",
			res.RetryExhausted, res.ScratchCold)
	}
	if c.XRay.UnattributedNS() == 0 {
		t.Fatal("degraded restores banked no unattributed blame")
	}
	r := c.XRay.Report()
	if r.UnattributedCount == 0 || r.UnattributedNS != c.XRay.UnattributedNS() {
		t.Fatalf("report unattributed = %d over %d requests", r.UnattributedNS, r.UnattributedCount)
	}
	// Unattributed time is banked beside the decomposition, not inside
	// it: every class still balances exactly.
	for _, cb := range r.Classes {
		if cb.ResidualNS != 0 {
			t.Fatalf("class %s residual = %d after degrade", cb.Class, cb.ResidualNS)
		}
	}
}
