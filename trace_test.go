package cxlfork

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"cxlfork/internal/trace"
)

// traceRun runs deploy → warmup → checkpoint → restore → invoke under
// mech with tracing on and returns the traced system. A non-empty
// scenario first drives one of traceScenarios' failure paths on the
// same warm function.
func traceRun(t *testing.T, mech MechanismKind, lanes int, seed int64, scenario string) *System {
	t.Helper()
	cfg := smallConfig()
	cfg.Trace = true
	cfg.Seed = seed
	cfg.CheckpointLanes = lanes
	cfg.RestoreLanes = lanes
	sys := newSystem(t, cfg)
	fn := deployWarm(t, sys, "Float")
	if scenario != "" {
		run, ok := traceScenarios[scenario]
		if !ok {
			t.Fatalf("unknown trace scenario %q", scenario)
		}
		run(t, sys, fn, mech)
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

// traceScenarios drive one failure path each before traceRun's
// quickstart, so its trace records the failed operation's spans.
var traceScenarios = map[string]func(t *testing.T, sys *System, fn *Function, mech MechanismKind){
	// fault is cxltrace's faults scenario: a one-shot device-full fault
	// at the first checkpoint's VMA step.
	"fault": func(t *testing.T, sys *System, fn *Function, mech MechanismKind) {
		sys.InjectFault(FaultRule{Kind: DeviceFull, Step: StepCheckpointVMA, Node: AnyNode})
		if _, err := sys.Checkpoint(fn, mech, "doomed"); err == nil {
			t.Fatal("injected checkpoint fault did not fire")
		}
	},
	// crash-pt kills the parent's node before the page-table copy,
	// leaving a torn arena that RecoverDevice collects.
	"crash-pt": func(t *testing.T, sys *System, fn *Function, mech MechanismKind) {
		sys.InjectFault(FaultRule{Kind: CrashNode, Step: StepCheckpointPT, Node: 0})
		if _, err := sys.Checkpoint(fn, mech, "torn"); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("checkpoint across a node crash: %v, want ErrNodeDown", err)
		}
		sys.RecoverDevice()
		sys.ReviveNode(0)
	},
	// attach fails the first restore at its attach step.
	"attach": func(t *testing.T, sys *System, fn *Function, mech MechanismKind) {
		ck, err := sys.Checkpoint(fn, mech, "first")
		if err != nil {
			t.Fatal(err)
		}
		sys.InjectFault(FaultRule{Kind: DeviceFull, Step: StepRestoreAttach, Node: AnyNode})
		if _, err := sys.Restore(1, ck, RestoreOptions{}); err == nil {
			t.Fatal("injected restore fault did not fire")
		}
	},
	// corrupt flips a bit in one checkpoint's global state, which its
	// restore must reject.
	"corrupt": func(t *testing.T, sys *System, fn *Function, mech MechanismKind) {
		sys.InjectFault(FaultRule{Kind: CorruptBlob, Step: StepCheckpointGlobal, Node: AnyNode, Target: "bad"})
		ck, err := sys.Checkpoint(fn, mech, "bad")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Restore(1, ck, RestoreOptions{}); !errors.Is(err, ErrImageCorrupt) {
			t.Fatalf("restore of a corrupted checkpoint: %v, want ErrImageCorrupt", err)
		}
	},
	// released restores a checkpoint after its last reference is gone.
	"released": func(t *testing.T, sys *System, fn *Function, mech MechanismKind) {
		ck, err := sys.Checkpoint(fn, mech, "gone")
		if err != nil {
			t.Fatal(err)
		}
		ck.Release()
		if _, err := sys.Restore(1, ck, RestoreOptions{}); err == nil {
			t.Fatal("restore of a released checkpoint succeeded")
		}
	},
	// parent-down restores an image whose parent node has crashed (a
	// node crash at a checkpoint's VMA step takes node 0 down).
	"parent-down": func(t *testing.T, sys *System, fn *Function, mech MechanismKind) {
		ck, err := sys.Checkpoint(fn, mech, "orphan")
		if err != nil {
			t.Fatal(err)
		}
		sys.InjectFault(FaultRule{Kind: CrashNode, Step: StepCheckpointVMA, Node: 0})
		if _, err := sys.Checkpoint(fn, mech, "crash"); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("checkpoint on a crashing node: %v, want ErrNodeDown", err)
		}
		if _, err := sys.Restore(1, ck, RestoreOptions{}); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("restore with the parent node down: %v, want ErrNodeDown", err)
		}
		sys.ReviveNode(0)
	},
	// fork clones the function with a local fork and invokes the child.
	"fork": func(t *testing.T, sys *System, fn *Function, mech MechanismKind) {
		child, err := fn.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := child.Invoke(); err != nil {
			t.Fatal(err)
		}
	},
}

// traceScenario returns the Chrome trace bytes of a CXLfork traceRun.
func traceScenario(t *testing.T, lanes int, seed int64, scenario string) []byte {
	t.Helper()
	sys := traceRun(t, CXLfork, lanes, seed, scenario)
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
			scenario := ""
			if fault {
				scenario = "fault"
			}
			t.Run(fmt.Sprintf("lanes=%d/fault=%v", lanes, fault), func(t *testing.T) {
				a := traceScenario(t, lanes, 7, scenario)
				b := traceScenario(t, lanes, 7, scenario)
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
	a := traceScenario(t, 1, 7, "")
	b := traceScenario(t, 4, 7, "")
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

// goldenTracePhases pins each traced scenario twice. phases hashes
// System.TracePhases as cxltrace prints the rows. events folds every
// field of every recorded span in emission order, as
// goldenObservedEvents does, so it also pins what the phase table
// leaves out: lane spans, span order, parents and begins. scenario
// names one of traceScenarios, or "" for the quickstart alone.
var goldenTracePhases = []struct {
	name           string
	mech           MechanismKind
	lanes          int
	scenario       string
	phases, events uint64
}{
	{"cxlfork/lanes=1", CXLfork, 1, "", 0xb5f5832895d80c5f, 0x33812b222efeb7c9},
	{"cxlfork/lanes=4", CXLfork, 4, "", 0x08bd3070bfc80017, 0x330cdc73c9e99a68},
	{"criu/lanes=1", CRIUCXL, 1, "", 0x05fd59dab73cc167, 0x3c43057d15de0a83},
	{"criu/lanes=4", CRIUCXL, 4, "", 0x703644649518339f, 0x1d1f0919d8c8619d},
	{"mitosis/lanes=1", MitosisCXL, 1, "", 0x094532183a3f88e2, 0x6dffad4fce9a57cd},
	{"mitosis/lanes=4", MitosisCXL, 4, "", 0x1769b4991a3621aa, 0x61432e4f920883a7},
	{"cxlfork/lanes=4/fault", CXLfork, 4, "fault", 0x11ee2a48f4ce0e0f, 0x2c2946e31d7f982f},
	{"criu/lanes=4/fault", CRIUCXL, 4, "fault", 0x51cab1c48fd2fa14, 0x1a9b4c8a007b500a},
	{"mitosis/lanes=4/fault", MitosisCXL, 4, "fault", 0x6274b1c1cf1240b0, 0xac04f3397981898e},
	{"cxlfork/lanes=4/crash-pt", CXLfork, 4, "crash-pt", 0xd34285ed56270b25, 0xbb9a98f2fb08cbd2},
	{"cxlfork/lanes=4/attach", CXLfork, 4, "attach", 0xb6c000a350a58707, 0x249a1dbf6a2a5435},
	{"criu/lanes=4/attach", CRIUCXL, 4, "attach", 0x1a6c2ee92cc789e9, 0x740f38c6b615dcd9},
	{"mitosis/lanes=4/attach", MitosisCXL, 4, "attach", 0xfca2d4aa86bda71e, 0xaaec2a4fc7e245aa},
	{"cxlfork/lanes=4/corrupt", CXLfork, 4, "corrupt", 0x5a8abee6df3df8b4, 0x5d38409cc52fe67b},
	{"criu/lanes=4/corrupt", CRIUCXL, 4, "corrupt", 0x423e12ee6f1ae7d4, 0xac24099bff560bfc},
	{"mitosis/lanes=4/corrupt", MitosisCXL, 4, "corrupt", 0x98b2d2b0179e4de7, 0xf2c9482ef26752fc},
	{"cxlfork/lanes=4/released", CXLfork, 4, "released", 0xba5e5d5d622a572e, 0x9cfbba84f58e3c0e},
	{"criu/lanes=4/released", CRIUCXL, 4, "released", 0x6b09fecfde8677bc, 0xcbb49fbdff3e9e4f},
	{"mitosis/lanes=4/released", MitosisCXL, 4, "released", 0x98b2d2b0179e4de7, 0xf2c9482ef26752fc},
	{"mitosis/lanes=4/parent-down", MitosisCXL, 4, "parent-down", 0x6bf1ec9fe0357561, 0x2e4088b132af1c84},
	{"cxlfork/lanes=4/fork", CXLfork, 4, "fork", 0xec8b8831efdcd116, 0xba62ef47987e189a},
}

// TestTracePhasesPinned holds each scenario's phase table and span
// stream to constants: every row's count, total, mean, P99 and max,
// and every recorded span's fields, must reproduce exactly.
func TestTracePhasesPinned(t *testing.T) {
	for _, tc := range goldenTracePhases {
		t.Run(tc.name, func(t *testing.T) {
			sys := traceRun(t, tc.mech, tc.lanes, 7, tc.scenario)
			phases := sys.TracePhases()
			if len(phases) == 0 {
				t.Fatal("no phases recorded")
			}
			h := fnv.New64a()
			for _, ph := range phases {
				fmt.Fprintf(h, "%s\t%d\t%v\t%v\t%v\t%v\n",
					ph.Phase, ph.Count, ph.Total, ph.Mean, ph.P99, ph.Max)
			}
			if got := h.Sum64(); got != tc.phases {
				t.Errorf("phase table hash %#x, golden %#x", got, tc.phases)
			}
			if got := spanStreamHash(sys.c.Trace.Events()); got != tc.events {
				t.Errorf("span stream hash %#x, golden %#x", got, tc.events)
			}
		})
	}
}

// spanStreamHash folds every field of every span, in emission order,
// eight little-endian bytes per field with strings as their FNV-1a
// hashes: the fold goldenObservedEvents uses.
func spanStreamHash(events []trace.Event) uint64 {
	h := fnv.New64a()
	var b [8]byte
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	text := func(s string) uint64 {
		th := fnv.New64a()
		th.Write([]byte(s))
		return th.Sum64()
	}
	for _, e := range events {
		fold(text(e.Name))
		fold(text(e.Cat))
		for _, v := range []uint64{uint64(e.Node), uint64(e.Track), uint64(e.Begin),
			uint64(e.Dur), uint64(e.Parent), uint64(e.Bytes), uint64(e.Pages)} {
			fold(v)
		}
	}
	return h.Sum64()
}
