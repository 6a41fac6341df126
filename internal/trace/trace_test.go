package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cxlfork/internal/des"
)

func TestEmitRecordsSpansAndPhases(t *testing.T) {
	tr := New(0)
	op := tr.Emit(None, 0, TrackOps, CatOp, "checkpoint", 100, 50, 4096, 1)
	if op != 1 {
		t.Fatalf("first span ID = %d, want 1", op)
	}
	ph := tr.Emit(op, 0, TrackOps, CatPhase, "copy", 100, 30, 4096, 1)
	if ph != 2 {
		t.Fatalf("second span ID = %d, want 2", ph)
	}
	ln := tr.Emit(ph, 0, TrackLaneBase, CatLane, "pt-leaf", 100, 30, 0, 1)
	if ln != 3 {
		t.Fatalf("lane span ID = %d, want 3", ln)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if got := tr.Events()[1].Parent; got != op {
		t.Errorf("phase parent = %d, want %d", got, op)
	}
	// The phase table keys cat/name, sorted; lane spans are excluded.
	ps := Phases(tr.Events())
	if len(ps) != 2 || ps[0].Name != "op/checkpoint" || ps[1].Name != "phase/copy" {
		t.Fatalf("phase table %+v, want op/checkpoint then phase/copy only", ps)
	}
	if r := ps[0].Latency; r.Count() != 1 || r.Sum() != 50 {
		t.Errorf("op/checkpoint distribution: count %d sum %d, want 1 and 50", r.Count(), r.Sum())
	}
	if r := ps[1].Latency; r.Count() != 1 || r.Sum() != 30 {
		t.Errorf("phase/copy distribution: count %d sum %d, want 1 and 30", r.Count(), r.Sum())
	}
}

func TestNilTracerIsDisabledAndSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if id := tr.Emit(None, 0, 0, CatOp, "x", 0, 1, 0, 0); id != Dropped {
		t.Errorf("nil Emit = %d, want Dropped", id)
	}
	if id := tr.EmitFlow(0, CatPorter, "x", 0, 1, 0, 0); id != Dropped {
		t.Errorf("nil EmitFlow = %d, want Dropped", id)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil || Phases(tr.Events()) != nil {
		t.Error("nil tracer accessors must return zero values")
	}
	obs, spans := tr.CollectShards(nil, ShardNames{})
	if obs != nil || spans != nil {
		t.Error("nil CollectShards must return (nil, nil)")
	}
	tr.EmitShards(None, 0, 0, spans) // must not panic
}

func TestBufferCapDropsAndClosedUnderParenthood(t *testing.T) {
	tr := New(2)
	a := tr.Emit(None, 0, 0, CatOp, "a", 0, 1, 0, 0)
	tr.Emit(a, 0, 0, CatPhase, "b", 0, 1, 0, 0)
	c := tr.Emit(None, 0, 0, CatOp, "c", 2, 1, 0, 0)
	if c != Dropped {
		t.Fatalf("span past cap = %d, want Dropped", c)
	}
	// A child of a dropped span is dropped too.
	if id := tr.Emit(c, 0, 0, CatPhase, "d", 2, 1, 0, 0); id != Dropped {
		t.Fatalf("child of dropped = %d, want Dropped", id)
	}
	if tr.Len() != 2 || tr.Dropped() != 2 {
		t.Fatalf("Len=%d Dropped=%d, want 2 and 2", tr.Len(), tr.Dropped())
	}
}

func TestEmitNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration must panic")
		}
	}()
	New(0).Emit(None, 0, 0, CatOp, "x", 10, -1, 0, 0)
}

func TestEmitFlowAssignsDisjointTracks(t *testing.T) {
	tr := New(0)
	tr.EmitFlow(0, CatPorter, "a", 0, 100, 0, 0)  // slot 0
	tr.EmitFlow(0, CatPorter, "b", 50, 100, 0, 0) // overlaps a -> slot 1
	tr.EmitFlow(0, CatPorter, "c", 100, 10, 0, 0) // a ended -> slot 0 again
	tr.EmitFlow(1, CatPorter, "d", 50, 10, 0, 0)  // other node -> its own slot 0
	ev := tr.Events()
	wantTracks := []int{trackFlowBase, trackFlowBase + 1, trackFlowBase, trackFlowBase}
	for i, want := range wantTracks {
		if ev[i].Track != want {
			t.Errorf("event %d track = %d, want %d", i, ev[i].Track, want)
		}
	}
	if errs := CheckNesting(ev); len(errs) != 0 {
		t.Errorf("flow spans violate nesting: %v", errs)
	}
}

// TestEmitFlowAtCapAssignsNoTrack fills the buffer, then emits a flow
// span that overlaps the recorded one: it must be dropped and counted
// without claiming a new flow track or moving an existing track's end.
func TestEmitFlowAtCapAssignsNoTrack(t *testing.T) {
	tr := New(1)
	tr.EmitFlow(0, CatPorter, "a", 0, 100, 0, 0)
	if id := tr.EmitFlow(0, CatPorter, "b", 50, 100, 0, 0); id != Dropped {
		t.Fatalf("flow span past cap = %d, want Dropped", id)
	}
	if tr.Len() != 1 || tr.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want 1 and 1", tr.Len(), tr.Dropped())
	}
	if ends := tr.flowEnds[0]; len(ends) != 1 || ends[0] != 100 {
		t.Fatalf("node 0 flow track ends %v, want one track ending at %v", ends, des.Time(100))
	}
}

func TestCheckNestingInvariants(t *testing.T) {
	cases := []struct {
		name    string
		events  []Event
		wantErr string // substring; "" means no violations
	}{
		{
			name: "well nested",
			events: []Event{
				{Name: "op", Cat: CatOp, Begin: 0, Dur: 100},
				{Name: "p1", Cat: CatPhase, Begin: 0, Dur: 40, Parent: 1},
				{Name: "p2", Cat: CatPhase, Begin: 40, Dur: 60, Parent: 1},
			},
		},
		{
			name: "zero-width annotation at parent end",
			events: []Event{
				{Name: "op", Cat: CatOp, Begin: 0, Dur: 100},
				{Name: "err", Cat: CatError, Begin: 100, Dur: 0, Parent: 1},
			},
		},
		{
			name: "negative duration",
			events: []Event{
				{Name: "op", Cat: CatOp, Begin: 10, Dur: -5},
			},
			wantErr: "negative duration",
		},
		{
			name: "child escapes parent",
			events: []Event{
				{Name: "op", Cat: CatOp, Begin: 0, Dur: 100},
				{Name: "p", Cat: CatPhase, Begin: 90, Dur: 20, Parent: 1},
			},
			wantErr: "escapes parent",
		},
		{
			name: "parent on another node",
			events: []Event{
				{Name: "op", Cat: CatOp, Node: 0, Begin: 0, Dur: 100},
				{Name: "p", Cat: CatPhase, Node: 1, Begin: 0, Dur: 10, Parent: 1},
			},
			wantErr: "on node",
		},
		{
			name: "forward parent reference",
			events: []Event{
				{Name: "p", Cat: CatPhase, Begin: 0, Dur: 10, Parent: 2},
				{Name: "op", Cat: CatOp, Begin: 0, Dur: 100},
			},
			wantErr: "invalid parent",
		},
		{
			name: "self parent",
			events: []Event{
				{Name: "op", Cat: CatOp, Begin: 0, Dur: 100, Parent: 1},
			},
			wantErr: "invalid parent",
		},
		{
			name: "partial overlap on one track",
			events: []Event{
				{Name: "a", Cat: CatOp, Begin: 0, Dur: 100},
				{Name: "b", Cat: CatOp, Begin: 50, Dur: 100},
			},
			wantErr: "without nesting",
		},
		{
			name: "same interval on different tracks is fine",
			events: []Event{
				{Name: "a", Cat: CatOp, Track: 0, Begin: 0, Dur: 100},
				{Name: "b", Cat: CatFault, Track: 1, Begin: 50, Dur: 100},
			},
		},
		{
			name: "adjacent spans are disjoint",
			events: []Event{
				{Name: "a", Cat: CatOp, Begin: 0, Dur: 50},
				{Name: "b", Cat: CatOp, Begin: 50, Dur: 50},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := CheckNesting(tc.events)
			if tc.wantErr == "" {
				if len(errs) != 0 {
					t.Fatalf("unexpected violations: %v", errs)
				}
				return
			}
			for _, err := range errs {
				if strings.Contains(err.Error(), tc.wantErr) {
					return
				}
			}
			t.Fatalf("no violation containing %q in %v", tc.wantErr, errs)
		})
	}
}

func TestWriteChromeIsValidJSONAndDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New(0)
		op := tr.Emit(None, 0, TrackOps, CatOp, "checkpoint", 1000, 500, 4096, 1)
		tr.Emit(op, 0, TrackOps, CatPhase, "copy", 1000, 500, 4096, 1)
		tr.Emit(None, 1, TrackFaults, CatFault, "cow-cxl", 1700, 40, 0, 1)
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteChrome(&a); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := build().WriteChrome(&b); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical traces serialized differently")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Name string  `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var xEvents int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			xEvents++
		}
	}
	if xEvents != 3 {
		t.Errorf("found %d X events, want 3", xEvents)
	}
	// ts round-trips exactly: 1000ns -> 1.000us.
	if doc.TraceEvents[len(doc.TraceEvents)-3].Ts != 1.0 {
		t.Errorf("first X event ts = %v, want 1.0", doc.TraceEvents[len(doc.TraceEvents)-3].Ts)
	}
}

func TestCollectAndEmitShards(t *testing.T) {
	tr := New(0)
	shards := []des.Shard{
		{Setup: 10},
		{Setup: 5, Units: 64, UnitCost: 2},
		{Setup: 5, Units: 32, UnitCost: 2},
	}
	obs, spans := tr.CollectShards(shards, ShardNames{Head: "vma-leaf", Split: 1, Tail: "pt-leaf"})
	dur := des.Pipeline(2, 2, 1, shards, obs)
	if len(*spans) != len(shards) {
		t.Fatalf("observed %d shards, want %d", len(*spans), len(shards))
	}
	op := tr.Emit(None, 0, TrackOps, CatOp, "checkpoint", 100, dur, 0, 0)
	copyID := tr.Emit(op, 0, TrackOps, CatPhase, "copy", 100, dur, 0, 0)
	tr.EmitShards(copyID, 0, 100, spans)
	if errs := CheckNesting(tr.Events()); len(errs) != 0 {
		t.Fatalf("shard spans violate nesting: %v", errs)
	}
	// Shards 0 and 1 start together on the two lanes, shard 2 when
	// shard 0 frees its lane: the spans come in completion order.
	lanes := tr.Events()[2:]
	for i, want := range []struct {
		name  string
		pages int
	}{{"vma-leaf", 0}, {"pt-leaf", 32}, {"pt-leaf", 64}} {
		if e := lanes[i]; e.Name != want.name || e.Pages != want.pages || e.Parent != copyID || e.Cat != CatLane {
			t.Errorf("lane span %d = %+v, want %s/%s with %d pages under span %d",
				i, e, CatLane, want.name, want.pages, copyID)
		}
	}
	for _, e := range lanes {
		if e.Track < TrackLaneBase {
			t.Errorf("lane span on track %d, want >= %d", e.Track, TrackLaneBase)
		}
		if e.Begin < 100 || e.End() > 100+dur {
			t.Errorf("lane span [%d,%d) outside phase [100,%d)", e.Begin, e.End(), 100+dur)
		}
	}
}

// TestCriticalPathSelection pins the critical-path walk: from every
// root, descend into the direct child finishing last (ties: larger
// duration, then lower span ID), marking the chain.
func TestCriticalPathSelection(t *testing.T) {
	tr := New(0)
	a := tr.Emit(None, 0, TrackOps, CatOp, "restore", 0, 100, 0, 1)
	early := tr.Emit(a, 0, TrackOps, CatPhase, "early", 0, 40, 0, 1)
	long := tr.Emit(a, 0, TrackOps, CatPhase, "long", 40, 60, 0, 1)
	deep := tr.Emit(long, 0, TrackOps, CatPhase, "deep", 40, 60, 0, 1)
	// Ends at 100 like "long", but shorter: the tie breaks on duration.
	late := tr.Emit(a, 0, TrackOps, CatPhase, "late", 95, 5, 0, 1)
	b := tr.Emit(None, 1, TrackOps, CatOp, "checkpoint", 200, 50, 0, 1)

	crit := Critical(tr.Events())
	for _, id := range []SpanID{a, long, deep, b} {
		if !crit[id] {
			t.Fatalf("span %d missing from critical path: %v", id, crit)
		}
	}
	for _, id := range []SpanID{early, late} {
		if crit[id] {
			t.Fatalf("span %d wrongly marked critical: %v", id, crit)
		}
	}

	var plain, marked bytes.Buffer
	if err := tr.WriteChrome(&plain); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeCritical(&marked); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(marked.Bytes(), []byte(`"critical":1`)); n != 4 {
		t.Fatalf("marked trace carries %d critical flags, want 4", n)
	}
	if bytes.Contains(plain.Bytes(), []byte(`"critical"`)) {
		t.Fatal("plain WriteChrome leaked critical marks")
	}
	if !json.Valid(marked.Bytes()) {
		t.Fatal("marked trace is not valid JSON")
	}
}
