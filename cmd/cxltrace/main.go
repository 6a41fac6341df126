// Command cxltrace runs a remote-fork scenario with the virtual-time
// tracer enabled, writes the recorded span stream as Chrome trace_event
// JSON (open in Perfetto: ui.perfetto.dev), and prints the per-phase
// latency breakdown the trace folds into — the same decomposition the
// paper's Fig. 6 reports per mechanism.
//
// Usage:
//
//	cxltrace -o trace.json                  # CXLfork quickstart on "Float"
//	cxltrace -fn Bert -mech criu -lanes 4
//	cxltrace -scenario faults               # checkpoint fault + retry
//	cxltrace -check -o trace.json           # self-validate the trace
//	cxltrace -critical -o trace.json        # mark each op's critical path
//
// -check re-reads the written file, rebuilds the span stream from the
// JSON, and verifies the structural invariants: spans nest, per-track
// timelines are totally ordered, each operation's phase children sum
// exactly to the operation's duration, the phase table derived from the
// file's spans equals the printed one row for row and field for field,
// the op/checkpoint total matches the virtual-clock delta measured
// around the Checkpoint calls, and nothing was dropped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
	"time"

	"cxlfork"
	"cxlfork/internal/des"
	"cxlfork/internal/trace"
)

func main() {
	fn := flag.String("fn", "Float", "workload function to trace (see FunctionNames)")
	mech := flag.String("mech", "cxlfork", "checkpoint mechanism: cxlfork, criu, mitosis")
	out := flag.String("o", "trace.json", "Chrome trace output path")
	lanes := flag.Int("lanes", 4, "checkpoint/restore lane count")
	seed := flag.Int64("seed", 1, "simulation seed")
	scenario := flag.String("scenario", "quickstart", "scenario: quickstart, faults")
	check := flag.Bool("check", false, "re-read the written trace and verify its invariants")
	critical := flag.Bool("critical", false, "mark each operation's critical path in the exported trace (args.critical=1)")
	flag.Parse()

	if err := run(*fn, *mech, *out, *lanes, *seed, *scenario, *check, *critical); err != nil {
		fmt.Fprintln(os.Stderr, "cxltrace:", err)
		os.Exit(1)
	}
}

func run(fn, mechName, out string, lanes int, seed int64, scenario string, check, critical bool) error {
	var mech cxlfork.MechanismKind
	switch mechName {
	case "cxlfork":
		mech = cxlfork.CXLfork
	case "criu":
		mech = cxlfork.CRIUCXL
	case "mitosis":
		mech = cxlfork.MitosisCXL
	default:
		return fmt.Errorf("unknown mechanism %q", mechName)
	}

	cfg := cxlfork.DefaultConfig()
	cfg.Trace = true
	cfg.Seed = seed
	cfg.CheckpointLanes = lanes
	cfg.RestoreLanes = lanes
	sys, err := cxlfork.NewSystem(cfg)
	if err != nil {
		return err
	}

	var ckDelta time.Duration
	switch scenario {
	case "quickstart":
		if err := quickstart(sys, fn, mech, &ckDelta); err != nil {
			return err
		}
	case "faults":
		if err := faults(sys, fn, mech, &ckDelta); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	write := sys.WriteTrace
	if critical {
		write = sys.WriteTraceCritical
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d spans, %d dropped (open in ui.perfetto.dev)\n\n",
		out, sys.TraceEventCount(), sys.TraceDropped())

	phaseTable(sys)

	if check {
		if err := verify(sys, out, ckDelta); err != nil {
			return err
		}
		fmt.Println("\ncheck: all trace invariants hold")
	}
	return nil
}

// quickstart is the paper's core loop: cold start and warm up the
// function on node 0, checkpoint it, restore the clone on node 1, and
// invoke the clone once so restore-side faulting shows in the trace.
func quickstart(sys *cxlfork.System, fn string, mech cxlfork.MechanismKind, ckDelta *time.Duration) error {
	live, err := sys.DeployFunction(0, fn)
	if err != nil {
		return err
	}
	if err := live.Warmup(16); err != nil {
		return err
	}
	t0 := sys.Now()
	ck, err := sys.Checkpoint(live, mech, fn+"-v1")
	*ckDelta += sys.Now() - t0
	if err != nil {
		return err
	}
	clone, err := sys.Restore(1, ck, cxlfork.RestoreOptions{})
	if err != nil {
		return err
	}
	if _, err := clone.Invoke(); err != nil {
		return err
	}
	return nil
}

// faults runs quickstart with a one-shot device-full fault injected at
// the first checkpoint's VMA step: the first attempt fails (a zero-width
// error annotation in the trace), the retry succeeds.
func faults(sys *cxlfork.System, fn string, mech cxlfork.MechanismKind, ckDelta *time.Duration) error {
	live, err := sys.DeployFunction(0, fn)
	if err != nil {
		return err
	}
	if err := live.Warmup(16); err != nil {
		return err
	}
	sys.InjectFault(cxlfork.FaultRule{
		Kind: cxlfork.DeviceFull,
		Step: cxlfork.StepCheckpointVMA,
		Node: cxlfork.AnyNode,
	})
	t0 := sys.Now()
	ck, err := sys.Checkpoint(live, mech, fn+"-v1")
	*ckDelta += sys.Now() - t0
	if err == nil {
		return fmt.Errorf("injected checkpoint fault did not fire")
	}
	t0 = sys.Now()
	ck, err = sys.Checkpoint(live, mech, fn+"-v2")
	*ckDelta += sys.Now() - t0
	if err != nil {
		return fmt.Errorf("checkpoint retry: %w", err)
	}
	clone, err := sys.Restore(1, ck, cxlfork.RestoreOptions{})
	if err != nil {
		return err
	}
	if _, err := clone.Invoke(); err != nil {
		return err
	}
	return nil
}

// phaseTable prints the per-phase latency breakdown (Fig. 6 style).
func phaseTable(sys *cxlfork.System) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "PHASE\tCOUNT\tTOTAL\tMEAN\tP99\tMAX")
	for _, ph := range sys.TracePhases() {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\n",
			ph.Phase, ph.Count, ph.Total, ph.Mean, ph.P99, ph.Max)
	}
	w.Flush()
}

// chromeEvent mirrors the exporter's X-event shape.
type chromeEvent struct {
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Args struct {
		Span   int   `json:"span"`
		Parent int   `json:"parent"`
		Bytes  int64 `json:"bytes"`
		Pages  int   `json:"pages"`
	} `json:"args"`
}

// verify re-reads the written trace and checks every structural
// invariant the tracer promises.
func verify(sys *cxlfork.System, path string, ckDelta time.Duration) error {
	if n := sys.TraceDropped(); n != 0 {
		return fmt.Errorf("check: %d spans dropped; raise -o scenario's TraceBufferCap", n)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return fmt.Errorf("check: trace is not valid JSON: %w", err)
	}

	// Rebuild the span stream. The exporter writes microseconds with
	// three decimals, so nanosecond integers round-trip exactly.
	var events []trace.Event
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		events = append(events, trace.Event{
			Name:   e.Name,
			Cat:    e.Cat,
			Node:   e.Pid,
			Track:  e.Tid,
			Begin:  des.Time(math.Round(e.Ts * 1e3)),
			Dur:    des.Time(math.Round(e.Dur * 1e3)),
			Parent: trace.SpanID(e.Args.Parent),
			Bytes:  e.Args.Bytes,
			Pages:  e.Args.Pages,
		})
		if got, want := e.Args.Span, len(events); got != want {
			return fmt.Errorf("check: span IDs not dense: event %d has span %d", want, got)
		}
	}
	if len(events) != sys.TraceEventCount() {
		return fmt.Errorf("check: file has %d spans, tracer recorded %d",
			len(events), sys.TraceEventCount())
	}
	for _, err := range trace.CheckNesting(events) {
		return fmt.Errorf("check: %w", err)
	}

	// Each operation's direct phase children partition it: their
	// durations sum exactly to the operation's. The mechanisms charge
	// integer costs phase by phase, so equality is exact, not approximate.
	phaseSum := make(map[trace.SpanID]des.Time)
	hasPhases := make(map[trace.SpanID]bool)
	for _, e := range events {
		if e.Cat == trace.CatPhase && e.Parent != trace.None {
			phaseSum[e.Parent] += e.Dur
			hasPhases[e.Parent] = true
		}
	}
	for i, e := range events {
		id := trace.SpanID(i + 1)
		if e.Cat == trace.CatOp && hasPhases[id] && phaseSum[id] != e.Dur {
			return fmt.Errorf("check: op %q [%d,%d) lasts %d but its phases sum to %d",
				e.Name, e.Begin, e.End(), e.Dur, phaseSum[id])
		}
	}

	// The phase table derived from the file's spans must equal the one
	// the facade derives from the live stream, in every field of every
	// row (lane spans are sub-phase detail, excluded from both).
	phases := sys.TracePhases()
	fileRows := trace.Phases(events)
	if len(fileRows) != len(phases) {
		return fmt.Errorf("check: file yields %d phase rows, tracer %d", len(fileRows), len(phases))
	}
	for i, ph := range fileRows {
		r := ph.Latency
		got := cxlfork.PhaseLatency{
			Phase: ph.Name,
			Count: r.Count(),
			Total: time.Duration(r.Sum()),
			Mean:  time.Duration(r.Mean()),
			P99:   time.Duration(r.P99()),
			Max:   time.Duration(r.Max()),
		}
		if got != phases[i] {
			return fmt.Errorf("check: phase row %d: file %+v != tracer %+v", i, got, phases[i])
		}
	}

	// Checkpoint spans cover exactly the virtual time the Checkpoint
	// calls consumed: the tracer is observational, so the span stream
	// and the clock must tell the same story.
	var ckTotal time.Duration
	for _, ph := range phases {
		if ph.Phase == "op/checkpoint" {
			ckTotal = ph.Total
		}
	}
	if ckTotal != ckDelta {
		return fmt.Errorf("check: op/checkpoint spans total %v but the clock advanced %v",
			ckTotal, ckDelta)
	}
	return nil
}
