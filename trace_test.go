package cxlfork

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"
)

// traceRun runs deploy → warmup → checkpoint → restore → invoke under
// mech with tracing on (optionally with an injected checkpoint fault
// and retry) and returns the traced system.
func traceRun(t *testing.T, mech MechanismKind, lanes int, seed int64, fault bool) *System {
	t.Helper()
	cfg := smallConfig()
	cfg.Trace = true
	cfg.Seed = seed
	cfg.CheckpointLanes = lanes
	cfg.RestoreLanes = lanes
	sys := newSystem(t, cfg)
	fn := deployWarm(t, sys, "Float")
	if fault {
		sys.InjectFault(FaultRule{Kind: DeviceFull, Step: StepCheckpointVMA, Node: AnyNode})
		if _, err := sys.Checkpoint(fn, mech, "doomed"); err == nil {
			t.Fatal("injected checkpoint fault did not fire")
		}
	}
	ck, err := sys.Checkpoint(fn, mech, "golden")
	if err != nil {
		t.Fatal(err)
	}
	clone, err := sys.Restore(1, ck, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Invoke(); err != nil {
		t.Fatal(err)
	}
	if n := sys.TraceDropped(); n != 0 {
		t.Fatalf("%d spans dropped", n)
	}
	return sys
}

// traceScenario returns the Chrome trace bytes of a CXLfork traceRun.
func traceScenario(t *testing.T, lanes int, seed int64, fault bool) []byte {
	t.Helper()
	sys := traceRun(t, CXLfork, lanes, seed, fault)
	var buf bytes.Buffer
	if err := sys.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraceDeterminism replays the same seeded scenario twice for
// each lane count, with and without an injected fault: the Chrome trace
// must come out byte-identical. The trace is a pure function of the
// simulation, and the simulation is a pure function of its seed.
func TestGoldenTraceDeterminism(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		for _, fault := range []bool{false, true} {
			t.Run(fmt.Sprintf("lanes=%d/fault=%v", lanes, fault), func(t *testing.T) {
				a := traceScenario(t, lanes, 7, fault)
				b := traceScenario(t, lanes, 7, fault)
				if !bytes.Equal(a, b) {
					t.Fatalf("same seed, different traces (%d vs %d bytes)", len(a), len(b))
				}
			})
		}
	}
}

// TestGoldenTraceSensitive proves the determinism test is not vacuous:
// changing the lane count changes the recorded pipeline schedule.
func TestGoldenTraceSensitive(t *testing.T) {
	a := traceScenario(t, 1, 7, false)
	b := traceScenario(t, 4, 7, false)
	if bytes.Equal(a, b) {
		t.Fatal("1-lane and 4-lane scenarios produced identical traces")
	}
}

// TestTracingIsObservationallyNeutral runs the identical scenario with
// tracing on and off: every simulated outcome — the virtual clock, the
// clone's invoke latency, memory occupancy, fault counts — must match
// exactly. The tracer records time; it must never spend it.
func TestTracingIsObservationallyNeutral(t *testing.T) {
	type outcome struct {
		now       time.Duration
		invoke    time.Duration
		localMem  int64
		cxlMem    int64
		ckBytes   int64
		faultKeys string
	}
	run := func(traced bool) outcome {
		cfg := smallConfig()
		cfg.Trace = traced
		cfg.CheckpointLanes = 4
		cfg.RestoreLanes = 4
		sys := newSystem(t, cfg)
		fn := deployWarm(t, sys, "Float")
		ck, err := sys.Checkpoint(fn, CXLfork, "neutral")
		if err != nil {
			t.Fatal(err)
		}
		clone, err := sys.Restore(1, ck, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lat, err := clone.Invoke()
		if err != nil {
			t.Fatal(err)
		}
		var faults []string
		for k, v := range clone.FaultCounts() {
			faults = append(faults, fmt.Sprintf("%s=%d", k, v))
		}
		return outcome{
			now:       sys.Now(),
			invoke:    lat,
			localMem:  sys.NodeMemoryUsed(1),
			cxlMem:    sys.CXLMemoryUsed(),
			ckBytes:   ck.CXLBytes(),
			faultKeys: strings.Join(sortStrings(faults), ","),
		}
	}
	off, on := run(false), run(true)
	if off != on {
		t.Fatalf("tracing changed simulated outcomes:\n off: %+v\n  on: %+v", off, on)
	}
}

func sortStrings(s []string) []string {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

// TestTraceAccessorsDisabled pins the disabled-tracer facade surface:
// WriteTrace refuses, the phase table is nil, and counters read zero.
func TestTraceAccessorsDisabled(t *testing.T) {
	sys := newSystem(t, smallConfig())
	if sys.TraceEnabled() {
		t.Fatal("tracing enabled by default")
	}
	if err := sys.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTrace succeeded with tracing disabled")
	}
	if sys.TracePhases() != nil || sys.TraceEventCount() != 0 || sys.TraceDropped() != 0 {
		t.Fatal("disabled tracer accessors returned non-zero state")
	}
}

// TestTracePhasesMatchTrace cross-checks the facade's phase table
// against the raw event stream: counts and totals must agree, and the
// table must be sorted by phase name.
func TestTracePhasesMatchTrace(t *testing.T) {
	cfg := smallConfig()
	cfg.Trace = true
	sys := newSystem(t, cfg)
	fn := deployWarm(t, sys, "Float")
	ck, err := sys.Checkpoint(fn, CXLfork, "phases")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Restore(1, ck, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	phases := sys.TracePhases()
	if len(phases) == 0 {
		t.Fatal("no phases recorded")
	}
	var total time.Duration
	for i, ph := range phases {
		if i > 0 && phases[i-1].Phase >= ph.Phase {
			t.Fatalf("phase table not sorted: %q before %q", phases[i-1].Phase, ph.Phase)
		}
		if ph.Count <= 0 || ph.Total < 0 || ph.Max < ph.Mean {
			t.Errorf("implausible phase row %+v", ph)
		}
		if strings.HasPrefix(ph.Phase, "op/") {
			total += ph.Total
		}
	}
	if total <= 0 || total > sys.Now() {
		t.Fatalf("op spans total %v, clock at %v", total, sys.Now())
	}
}

// goldenTracePhases pins System.TracePhases for each mechanism's traced
// quickstart at one and four lanes, and for the checkpoint-fault
// scenario. Each hash covers the rows as cxltrace prints them.
var goldenTracePhases = []struct {
	name  string
	mech  MechanismKind
	lanes int
	fault bool
	want  uint64
}{
	{"cxlfork/lanes=1", CXLfork, 1, false, 0xb5f5832895d80c5f},
	{"cxlfork/lanes=4", CXLfork, 4, false, 0x08bd3070bfc80017},
	{"criu/lanes=1", CRIUCXL, 1, false, 0x05fd59dab73cc167},
	{"criu/lanes=4", CRIUCXL, 4, false, 0x703644649518339f},
	{"mitosis/lanes=1", MitosisCXL, 1, false, 0x094532183a3f88e2},
	{"mitosis/lanes=4", MitosisCXL, 4, false, 0x1769b4991a3621aa},
	{"cxlfork/lanes=4/fault", CXLfork, 4, true, 0x11ee2a48f4ce0e0f},
}

// TestTracePhasesPinned holds the phase table to constants: every row's
// count, total, mean, P99 and max must reproduce exactly.
func TestTracePhasesPinned(t *testing.T) {
	for _, tc := range goldenTracePhases {
		t.Run(tc.name, func(t *testing.T) {
			phases := traceRun(t, tc.mech, tc.lanes, 7, tc.fault).TracePhases()
			if len(phases) == 0 {
				t.Fatal("no phases recorded")
			}
			h := fnv.New64a()
			for _, ph := range phases {
				fmt.Fprintf(h, "%s\t%d\t%v\t%v\t%v\t%v\n",
					ph.Phase, ph.Count, ph.Total, ph.Mean, ph.P99, ph.Max)
			}
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("phase table hash %#x, golden %#x", got, tc.want)
			}
		})
	}
}
