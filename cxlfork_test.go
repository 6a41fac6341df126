package cxlfork

import (
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// smallConfig keeps facade tests fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NodeDRAM = 2 << 30
	cfg.CXLCapacity = 2 << 30
	return cfg
}

// newSystem boots a System from cfg, failing the test on a config
// NewSystem refuses.
func newSystem(t testing.TB, cfg Config) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func deployWarm(t *testing.T, sys *System, name string) *Function {
	t.Helper()
	fn, err := sys.DeployFunction(0, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Warmup(16); err != nil {
		t.Fatal(err)
	}
	return fn
}

func TestFunctionNames(t *testing.T) {
	names := FunctionNames()
	if len(names) != 10 {
		t.Fatalf("suite = %v", names)
	}
}

func TestDeployInvoke(t *testing.T) {
	sys := newSystem(t, smallConfig())
	fn, err := sys.DeployFunction(0, "Float")
	if err != nil {
		t.Fatal(err)
	}
	d, err := fn.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("zero invocation time")
	}
	if fn.ResidentLocalBytes() == 0 {
		t.Fatal("no resident memory after cold start")
	}
	if sys.Now() == 0 {
		t.Fatal("virtual clock did not advance")
	}
	fn.Exit()
	if _, err := sys.DeployFunction(0, "Nope"); err == nil {
		t.Fatal("unknown function deployed")
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	sys := newSystem(t, smallConfig())
	fn := deployWarm(t, sys, "Float")

	ck, err := sys.Checkpoint(fn, CXLfork, "float-v1")
	if err != nil {
		t.Fatal(err)
	}
	info := ck.Describe()
	if info.DataPages == 0 || info.VMAs == 0 || info.PageTableLeaves == 0 {
		t.Fatalf("info = %+v", info)
	}
	if ck.ParentLocalBytes() != 0 {
		t.Fatal("CXLfork checkpoint pinned parent memory")
	}
	fn.Exit() // parent may exit: checkpoint is decoupled

	t0 := sys.Now()
	clone, err := sys.Restore(1, ck, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	restoreLat := sys.Now() - t0
	if restoreLat > 20*time.Millisecond {
		t.Fatalf("restore took %v", restoreLat)
	}
	warm, err := clone.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if warm <= 0 {
		t.Fatal("no invocation time")
	}
	// Most state stays on CXL under migrate-on-write.
	if clone.ResidentCXLBytes() == 0 {
		t.Fatal("clone maps nothing from CXL")
	}
	if clone.ResidentLocalBytes() >= clone.ResidentCXLBytes() {
		t.Fatalf("local %d ≥ cxl %d under MoW",
			clone.ResidentLocalBytes(), clone.ResidentCXLBytes())
	}
	clone.Exit()
	ck.Release()
	if sys.CXLMemoryUsed() != 0 {
		t.Fatalf("device holds %d bytes after release", sys.CXLMemoryUsed())
	}
}

func TestAllMechanisms(t *testing.T) {
	sys := newSystem(t, smallConfig())
	fn := deployWarm(t, sys, "Json")
	for _, mech := range []MechanismKind{CXLfork, CRIUCXL, MitosisCXL} {
		ck, err := sys.Checkpoint(fn, mech, "json-"+mech.String())
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		clone, err := sys.Restore(1, ck, RestoreOptions{})
		if err != nil {
			t.Fatalf("%v restore: %v", mech, err)
		}
		if _, err := clone.Invoke(); err != nil {
			t.Fatalf("%v invoke: %v", mech, err)
		}
		clone.Exit()
		ck.Release()
	}
	if MitosisCXL.String() != "Mitosis-CXL" || CRIUCXL.String() != "CRIU-CXL" {
		t.Fatal("mechanism names wrong")
	}
}

func TestMitosisPinsParentMemory(t *testing.T) {
	sys := newSystem(t, smallConfig())
	fn := deployWarm(t, sys, "Float")
	ck, err := sys.Checkpoint(fn, MitosisCXL, "m1")
	if err != nil {
		t.Fatal(err)
	}
	if ck.ParentLocalBytes() == 0 {
		t.Fatal("Mitosis checkpoint pins no parent memory")
	}
	if ck.CXLBytes() != 0 {
		t.Fatal("Mitosis checkpoint on the device")
	}
	ck.Release()
}

func TestTieringPolicies(t *testing.T) {
	sys := newSystem(t, smallConfig())
	fn := deployWarm(t, sys, "Float")
	ck, _ := sys.Checkpoint(fn, CXLfork, "f1")

	mow, err := sys.Restore(1, ck, RestoreOptions{Policy: MigrateOnWrite})
	if err != nil {
		t.Fatal(err)
	}
	moa, err := sys.Restore(1, ck, RestoreOptions{Policy: MigrateOnAccess})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mow.Invoke(); err != nil {
		t.Fatal(err)
	}
	if _, err := moa.Invoke(); err != nil {
		t.Fatal(err)
	}
	if moa.ResidentLocalBytes() <= mow.ResidentLocalBytes() {
		t.Fatalf("MoA local %d ≤ MoW local %d",
			moa.ResidentLocalBytes(), mow.ResidentLocalBytes())
	}
	if moa.ResidentCXLBytes() != 0 {
		t.Fatal("MoA left CXL mappings")
	}
	counts := moa.FaultCounts()
	if counts["moa"] == 0 {
		t.Fatalf("fault counts = %v", counts)
	}
}

func TestABitInterface(t *testing.T) {
	sys := newSystem(t, smallConfig())
	fn := deployWarm(t, sys, "Float")
	ck, _ := sys.Checkpoint(fn, CXLfork, "f1")
	n, err := ck.ClearAccessBits()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("steady-state checkpoint had no A bits")
	}
	ckCriu, _ := sys.Checkpoint(fn, CRIUCXL, "f2")
	if _, err := ckCriu.ClearAccessBits(); err == nil {
		t.Fatal("CRIU exposed an A-bit interface")
	}
}

func TestLocalFork(t *testing.T) {
	sys := newSystem(t, smallConfig())
	fn := deployWarm(t, sys, "Float")
	before := sys.NodeMemoryUsed(0)
	child, err := fn.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.NodeMemoryUsed(0) - before; got != 0 {
		t.Fatalf("fork copied %d bytes", got)
	}
	if _, err := child.Invoke(); err != nil {
		t.Fatal(err)
	}
	child.Exit()
}

func TestRestoreLatencyOrdering(t *testing.T) {
	// The paper's core claim end-to-end through the public API: CXLfork
	// restores faster than Mitosis, which restores faster than CRIU.
	sys := newSystem(t, smallConfig())
	fn := deployWarm(t, sys, "HTML")
	lat := make(map[MechanismKind]time.Duration)
	for _, mech := range []MechanismKind{CXLfork, CRIUCXL, MitosisCXL} {
		ck, err := sys.Checkpoint(fn, mech, "h-"+mech.String())
		if err != nil {
			t.Fatal(err)
		}
		t0 := sys.Now()
		clone, err := sys.Restore(1, ck, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lat[mech] = sys.Now() - t0
		clone.Exit()
		ck.Release()
	}
	if !(lat[CXLfork] < lat[MitosisCXL] && lat[MitosisCXL] < lat[CRIUCXL]) {
		t.Fatalf("restore ordering: %v", lat)
	}
}

// TestRunWorkloadRejectsBadTrace hands RunWorkload explicit traces it
// cannot replay: one naming functions the mix does not provision, and
// arrival times the engine cannot schedule. Each must end in an error
// naming the first bad arrival, not in a panic out of the engine.
func TestRunWorkloadRejectsBadTrace(t *testing.T) {
	for _, tc := range []struct {
		name          string
		trace         []Arrival
		want, notWant string
	}{
		{"outside mix", []Arrival{
			{At: 100 * time.Millisecond, Function: "Json"},
			{At: 200 * time.Millisecond, Function: "Float"},
			{At: 300 * time.Millisecond, Function: "Bert"},
		}, `function "Json", which is not in the workload mix`, "Bert"},
		{"negative", []Arrival{
			{At: 100 * time.Millisecond, Function: "Float"},
			{At: -time.Second, Function: "Float"},
		}, "trace arrival 1 (Float at -1s): negative", ""},
		{"past the clock", []Arrival{
			{At: math.MaxInt64 - 1, Function: "Float"},
		}, "trace arrival 0 (Float at 2562047h47m16.854775806s): beyond", ""},
	} {
		_, err := RunWorkload(smallConfig(), Workload{
			Functions: []string{"Float"},
			Trace:     tc.trace,
		}, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) || (tc.notWant != "" && strings.Contains(err.Error(), tc.notWant)) {
			t.Errorf("%s: err = %v, want one mentioning %s", tc.name, err, tc.want)
		}
	}
}

// TestRunWorkloadAlertsMatchTicks drives a replay whose occupancy
// objective the resident checkpoint alone violates: RunReport.Alerts
// must carry exactly the transitions the OnSample ticks delivered, in
// the order they arrived.
func TestRunWorkloadAlertsMatchTicks(t *testing.T) {
	cfg := smallConfig()
	cfg.Telemetry.SLOOccupancy = 0.001
	cfg.Telemetry.SLODrive = true
	var streamed []AlertEvent
	rep, err := RunWorkload(cfg, Workload{RPS: 20, Duration: 6 * time.Second, Functions: []string{"Float"}}, &RunOptions{
		OnSample: func(tick Tick) { streamed = append(streamed, tick.Alerts...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLOAlertsFired == 0 || len(streamed) == 0 || !streamed[0].Firing || streamed[0].Objective != "cxl-occupancy" {
		t.Fatalf("%d alerts fired, ticks carried %+v: want the occupancy alert to fire", rep.SLOAlertsFired, streamed)
	}
	if !slices.Equal(rep.Alerts, streamed) {
		t.Fatalf("report alerts %+v, ticks carried %+v", rep.Alerts, streamed)
	}
}

func TestWorkflowChain(t *testing.T) {
	sys := newSystem(t, smallConfig())
	bv, err := sys.RunWorkflowChain(3, 4<<20, PassByValue)
	if err != nil {
		t.Fatal(err)
	}
	sys2 := newSystem(t, smallConfig())
	br, err := sys2.RunWorkflowChain(3, 4<<20, PassByReference)
	if err != nil {
		t.Fatal(err)
	}
	if br.LocalBytesCopied != 0 {
		t.Fatalf("by-reference copied %d bytes", br.LocalBytesCopied)
	}
	if bv.LocalBytesCopied == 0 {
		t.Fatal("by-value copied nothing")
	}
	if br.Latency >= bv.Latency {
		t.Fatalf("by-reference %v not faster than by-value %v", br.Latency, bv.Latency)
	}
	if _, err := sys.RunWorkflowChain(1, 1<<20, PassByValue); err == nil {
		t.Fatal("degenerate chain accepted")
	}
}

// TestWorkersAreResultNeutral is the facade-level determinism contract
// of DESIGN.md §13: Config.Workers fans simulation legs out to
// goroutines but must not change any observable result.
func TestWorkersAreResultNeutral(t *testing.T) {
	run := func(workers int) (time.Duration, int64, int64) {
		cfg := smallConfig()
		cfg.Workers = workers
		sys := newSystem(t, cfg)
		fn := deployWarm(t, sys, "Float")
		ck, err := sys.Checkpoint(fn, CXLfork, "float-w")
		if err != nil {
			t.Fatal(err)
		}
		fn.Exit()
		clone, err := sys.Restore(1, ck, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := clone.Invoke()
		if err != nil {
			t.Fatal(err)
		}
		return d, clone.ResidentLocalBytes(), clone.ResidentCXLBytes()
	}
	d1, l1, c1 := run(1)
	for _, w := range []int{2, 8} {
		d, l, c := run(w)
		if d != d1 || l != l1 || c != c1 {
			t.Fatalf("workers=%d diverged: %v/%d/%d vs %v/%d/%d", w, d, l, c, d1, l1, c1)
		}
	}
}

// TestFacadeTelemetryDedupAndAccessors covers facade methods that no
// command or example calls: on-demand telemetry snapshots and their
// exports, the dedup counters, and the function and checkpoint
// accessors.
func TestFacadeTelemetryDedupAndAccessors(t *testing.T) {
	cfg := smallConfig()
	cfg.Telemetry.Enabled = true
	sys := newSystem(t, cfg)
	if !sys.TelemetryEnabled() {
		t.Fatal("telemetry enabled in Config but not reported")
	}
	fn, err := sys.DeployFunction(1, "Float")
	if err != nil {
		t.Fatal(err)
	}
	if fn.Node() != 1 || fn.Name() != "Float" {
		t.Fatalf("function %q on node %d, want Float on node 1", fn.Name(), fn.Node())
	}
	if err := fn.Warmup(16); err != nil {
		t.Fatal(err)
	}

	// A second checkpoint of the same function dedups against the first.
	ck, err := sys.Checkpoint(fn, CXLfork, "float-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Checkpoint(fn, CXLfork, "float-b"); err != nil {
		t.Fatal(err)
	}
	if d := sys.DedupStats(); d.Hits <= 0 || d.HitRate() <= 0 || d.HitRate() >= 1 {
		t.Fatalf("dedup %+v, hit rate %g: want hits and a rate in (0, 1)", d, d.HitRate())
	}
	info := ck.Describe()
	if ck.ID() != "float-a" || ck.ID() != info.ID || ck.Mechanism().String() != info.Mechanism ||
		ck.Pages() != info.DataPages || ck.CXLBytes() != info.CXLBytes {
		t.Fatalf("accessors %q %v %d %d disagree with Describe %+v",
			ck.ID(), ck.Mechanism(), ck.Pages(), ck.CXLBytes(), info)
	}

	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.TelemetrySamples(); got != 1 {
		t.Fatalf("TelemetrySamples = %d after one Snapshot, want 1", got)
	}
	if got := sys.TelemetryDropped(); got != 0 {
		t.Fatalf("TelemetryDropped = %d, want 0", got)
	}
	for _, f := range []MetricsFormat{MetricsPrometheus, MetricsOpenMetrics, MetricsCSV, MetricsJSON} {
		var b strings.Builder
		if err := sys.WriteMetrics(&b, f); err != nil || b.Len() == 0 {
			t.Fatalf("WriteMetrics(%s) wrote %d bytes, err %v", f, b.Len(), err)
		}
	}
	if err := sys.WriteMetrics(io.Discard, "xml"); err == nil {
		t.Fatal("unknown metrics format accepted")
	}

	off := newSystem(t, smallConfig())
	if off.TelemetryEnabled() {
		t.Fatal("telemetry reported on by default")
	}
	if err := off.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded with telemetry off")
	}
	if err := off.WriteMetrics(io.Discard, MetricsPrometheus); err == nil {
		t.Fatal("WriteMetrics succeeded with telemetry off")
	}
}
