package kernel

import (
	"fmt"

	"cxlfork/internal/des"
	"cxlfork/internal/params"
	"cxlfork/internal/trace"
)

// maxPhases bounds an operation's phases. CXLfork's restore has the
// most: struct-copy, attach, global-restore and prefetch.
const maxPhases = 4

// Op records one checkpoint, restore or fork on its node. The
// mechanism begins it before its first step and reports each phase as
// it charges it; the phases run back to back from the op's start, so
// Dur, their sum, is the virtual time the mechanism charges for them.
// Lanes runs a phase's lane pipeline. The op ends with Done, which
// emits the op span, then each phase with its pipeline's lane spans
// under it, or with Fail, which emits the op span over whatever time
// the attempt consumed and a zero-width error span naming the step
// that failed. With tracing off an Op emits nothing and allocates
// nothing: it lives on the caller's stack.
type Op struct {
	os     *OS
	name   string
	t0     des.Time
	dur    des.Time
	n      int
	phases [maxPhases]opPhase
}

// opPhase is one recorded phase of an Op.
type opPhase struct {
	name  string
	dur   des.Time
	bytes int64
	pages int
	// lanes holds the phase's shard spans, nil without a traced
	// pipeline.
	lanes *[]trace.ShardSpan
}

// BeginOp starts recording the named operation at the current time.
func (o *OS) BeginOp(name string) Op {
	return Op{os: o, name: name, t0: o.Eng.Now()}
}

// Dur returns the summed duration of the phases recorded so far.
func (op *Op) Dur() des.Time { return op.dur }

// Phase records the next phase: dur of work that moved bytes over
// pages.
func (op *Op) Phase(name string, dur des.Time, bytes int64, pages int) {
	op.phases[op.n] = opPhase{name: name, dur: dur, bytes: bytes, pages: pages}
	op.n++
	op.dur += dur
}

// Clocked records the next phase as the time the clock advanced since
// the previous phase ended, for work whose callee charged the clock
// itself.
func (op *Op) Clocked(name string, bytes int64, pages int) {
	op.Phase(name, op.os.Eng.Now()-op.t0-op.dur, bytes, pages)
}

// Lanes runs shards through a lane pipeline (des.Pipeline on lanes
// worker lanes sharing streams full-rate streams) and records the next
// phase as its makespan. The node's lane telemetry counters observe
// every shard, and with tracing on each shard becomes a lane span under
// the phase, named by names.
func (op *Op) Lanes(name string, bytes int64, pages int, lanes, streams int, shards []des.Shard, names trace.ShardNames) {
	obs, spans := op.os.Trace.CollectShards(shards, names)
	op.Phase(name, des.Pipeline(lanes, streams, params.LaneDispatch, shards, op.os.laneObs(shards, obs)), bytes, pages)
	op.phases[op.n-1].lanes = spans
}

// Fail records the operation's failure at step and returns err: the op
// span covers [start, now), whatever the failed attempt charged, with a
// zero-width error span at its end. The recorded phases are not
// emitted.
func (op *Op) Fail(step string, err error) error {
	o := op.os
	if !o.Trace.Enabled() {
		return err
	}
	now := o.Eng.Now()
	id := o.Trace.Emit(trace.None, o.Index, trace.TrackOps, trace.CatOp, op.name, op.t0, now-op.t0, 0, 0)
	if id > trace.None {
		o.Trace.Emit(id, o.Index, trace.TrackOps, trace.CatError, step, now, 0, 0, 0)
	}
	return err
}

// Done records the operation's success: the op span over [start, now)
// carrying bytes and pages, then its phases back to back from its
// start, each lane phase's shard spans under it. Phases that do not sum
// to the op's duration are an accounting bug, and Done panics on them.
func (op *Op) Done(bytes int64, pages int) {
	o := op.os
	dur := o.Eng.Now() - op.t0
	if op.n > 0 && op.dur != dur {
		panic(fmt.Sprintf("kernel: %s phases sum to %d but it lasted %d", op.name, op.dur, dur))
	}
	if !o.Trace.Enabled() {
		return
	}
	id := o.Trace.Emit(trace.None, o.Index, trace.TrackOps, trace.CatOp, op.name, op.t0, dur, bytes, pages)
	begin := op.t0
	for _, ph := range op.phases[:op.n] {
		phID := o.Trace.Emit(id, o.Index, trace.TrackOps, trace.CatPhase, ph.name, begin, ph.dur, ph.bytes, ph.pages)
		o.Trace.EmitShards(phID, o.Index, begin, ph.lanes)
		begin += ph.dur
	}
}
