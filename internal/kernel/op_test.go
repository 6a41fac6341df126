package kernel

import (
	"errors"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/trace"
)

// TestOpEmitsPhasesBackToBack records a plain phase, a lane phase and a
// clocked phase: Done emits the op span, then each phase from where the
// previous one ended, with the lane phase's shard spans under it.
func TestOpEmitsPhasesBackToBack(t *testing.T) {
	o := testNode(t)
	o.Trace = trace.New(0)
	o.Eng.Advance(1000)
	op := o.BeginOp("restore")
	op.Phase("decode", 30, 0, 0)
	shards := []des.Shard{{Setup: 10}, {Setup: 5, Units: 4, UnitCost: 2}}
	op.Lanes("copy", 4096, 4, 1, 1, shards, trace.ShardNames{Head: "vma-record", Split: 1, Tail: "page-batch"})
	o.Eng.Advance(op.Dur())
	o.Eng.Advance(7) // work the callee charges the clock itself
	op.Clocked("global-restore", 0, 0)
	op.Done(8192, 4)

	want := []trace.Event{
		{Name: "restore", Cat: trace.CatOp, Begin: 1000, Dur: 60, Bytes: 8192, Pages: 4},
		{Name: "decode", Cat: trace.CatPhase, Begin: 1000, Dur: 30, Parent: 1},
		{Name: "copy", Cat: trace.CatPhase, Begin: 1030, Dur: 23, Parent: 1, Bytes: 4096, Pages: 4},
		{Name: "vma-record", Cat: trace.CatLane, Track: trace.TrackLaneBase, Begin: 1030, Dur: 10, Parent: 3},
		{Name: "page-batch", Cat: trace.CatLane, Track: trace.TrackLaneBase, Begin: 1040, Dur: 13, Parent: 3, Pages: 4},
		{Name: "global-restore", Cat: trace.CatPhase, Begin: 1053, Dur: 7, Parent: 1},
	}
	got := o.Trace.Events()
	if len(got) != len(want) {
		t.Fatalf("recorded %d spans, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i+1, got[i], want[i])
		}
	}
}

// TestOpFailEmitsOnlyTheError records phases and then fails: the op span
// covers the time charged so far and carries a zero-width error span;
// the phases are not emitted.
func TestOpFailEmitsOnlyTheError(t *testing.T) {
	o := testNode(t)
	o.Trace = trace.New(0)
	cause := errors.New("device full")
	op := o.BeginOp("checkpoint")
	op.Phase("struct-copy", 5, 0, 0)
	o.Eng.Advance(op.Dur())
	if err := op.Fail("pt", cause); err != cause {
		t.Fatalf("Fail returned %v, want its cause", err)
	}
	want := []trace.Event{
		{Name: "checkpoint", Cat: trace.CatOp, Begin: 0, Dur: 5},
		{Name: "pt", Cat: trace.CatError, Begin: 5, Parent: 1},
	}
	got := o.Trace.Events()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("recorded %+v, want %+v", got, want)
	}
}

// TestOpDonePanicsOnUnrecordedTime: a clock that moved past the phases
// is an accounting bug, traced or not.
func TestOpDonePanicsOnUnrecordedTime(t *testing.T) {
	o := testNode(t)
	op := o.BeginOp("checkpoint")
	op.Phase("serialize", 10, 0, 0)
	o.Eng.Advance(11)
	defer func() {
		if recover() == nil {
			t.Fatal("Done accepted phases that do not sum to the op's duration")
		}
	}()
	op.Done(0, 0)
}

// TestOpUntracedAllocatesNothing runs every recorder call with tracing
// and telemetry off, as calibration and porter setup do.
func TestOpUntracedAllocatesNothing(t *testing.T) {
	o := testNode(t)
	shards := []des.Shard{{Setup: 10}, {Setup: 5, Units: 4, UnitCost: 2}}
	cause := errors.New("injected")
	allocs := testing.AllocsPerRun(100, func() {
		op := o.BeginOp("restore")
		op.Phase("decode", 30, 0, 0)
		op.Lanes("copy", 0, 4, 1, 1, shards, trace.ShardNames{Tail: "page-batch"})
		o.Eng.Advance(op.Dur() + 7)
		op.Clocked("global-restore", 0, 0)
		op.Done(0, 4)
		_ = op.Fail("global", cause)
	})
	if allocs != 0 {
		t.Fatalf("untraced op allocated %v times per run, want 0", allocs)
	}
}
