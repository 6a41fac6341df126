package des

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refEvent is one event of the reference engine.
type refEvent struct {
	at    Time
	seq   uint64
	label int
	kind  refKind
}

// refKind is what the reference does when an event pops.
type refKind int

const (
	refPlain   refKind = iota // fire the label
	refJobDone                // a resource job ends: release its slot, then fire
	refHoldEnd                // an Acquire holder lets go: record, then release
)

// refEngine is the engine as a plain list: every pop sorts the live
// events by (at, seq) and takes the first. Cancel deletes the event if
// it is still pending. It is the model the heap engine, with removal
// on cancel and lazily pushed sorted batches, must dispatch like.
type refEngine struct {
	now      Time
	seq      uint64
	live     []refEvent
	executed uint64
}

func (r *refEngine) at(t Time, label int, kind refKind) uint64 {
	r.live = append(r.live, refEvent{t, r.seq, label, kind})
	r.seq++
	return r.seq - 1
}

// refJob is a slot request of the reference resource: a Run or Exec job
// that holds the slot for dur, or an Acquire waiter that records its
// label when granted and lets go hold later.
type refJob struct {
	label   int
	dur     Time
	acquire bool
	hold    Time
}

// refResource is the resource as a plain FIFO: a granted job schedules
// its completion at once, and a finished job releases its slot, which
// goes to the oldest waiter, before its own label fires.
type refResource struct {
	slots, busy int
	queue       []refJob
}

func (r *refEngine) cancel(seq uint64) {
	r.live = slices.DeleteFunc(r.live, func(e refEvent) bool { return e.seq == seq })
}

func (r *refEngine) pop(deadline Time) (refEvent, bool) {
	sort.Slice(r.live, func(i, j int) bool {
		if r.live[i].at != r.live[j].at {
			return r.live[i].at < r.live[j].at
		}
		return r.live[i].seq < r.live[j].seq
	})
	if len(r.live) == 0 || r.live[0].at > deadline {
		return refEvent{}, false
	}
	e := r.live[0]
	r.live = r.live[1:]
	r.now = e.at
	r.executed++
	return e, true
}

// diffHarness drives an Engine and a refEngine through the same
// operations and records the labels each dispatches.
type diffHarness struct {
	t      *testing.T
	e      *Engine
	r      *refEngine
	res    *Resource
	rr     *refResource
	labels int
	got    []int
	want   []int
	ids    []EventID // every At/After, fired, cancelled or pending
	seqs   []uint64  // the reference seq of ids[i]
}

// follow is what a fired event does: every third label schedules a
// follow-up, so events scheduled from inside dispatch are covered. The
// follow-up's label is derived from its parent's, so the engine and
// the reference name it alike.
func (h *diffHarness) follow(label int, sched func(d Time, label int)) {
	if label%3 == 0 {
		sched(Time(label%7), label+followLabel)
	}
}

// followLabel offsets follow-up labels; it is 1 mod 3, so follow-ups
// schedule none of their own. holdLabel offsets the label an Acquire
// holder records when it releases its slot.
const (
	followLabel = 1_000_000
	holdLabel   = 2_000_000
)

func (h *diffHarness) fire(label int) {
	h.got = append(h.got, label)
	h.follow(label, func(d Time, l int) { h.e.After(d, func() { h.fire(l) }) })
}

func (h *diffHarness) refFire(label int) {
	h.want = append(h.want, label)
	h.follow(label, func(d Time, l int) { h.r.at(h.r.now+d, l, refPlain) })
}

// refDispatch is what the reference does with a popped event.
func (h *diffHarness) refDispatch(e refEvent) {
	switch e.kind {
	case refJobDone:
		h.refRelease()
		h.refFire(e.label)
	case refHoldEnd:
		h.want = append(h.want, e.label)
		h.refRelease()
	default:
		h.refFire(e.label)
	}
}

func (h *diffHarness) at(t Time) {
	l := h.labels
	h.labels++
	h.ids = append(h.ids, h.e.At(t, func() { h.fire(l) }))
	h.seqs = append(h.seqs, h.r.at(t, l, refPlain))
}

func (h *diffHarness) batch(times []Time) {
	l0 := h.labels
	h.labels += len(times)
	h.e.AtSorted(len(times), func(i int) Time { return times[i] }, func(i int) { h.fire(l0 + i) })
	for i, t := range times {
		h.r.at(t, l0+i, refPlain)
	}
}

// labelAction is a resource job's Action: it fires its label.
type labelAction struct {
	h     *diffHarness
	label int
}

func (a *labelAction) Fire(now Time) {
	if now != a.h.e.Now() {
		a.h.t.Fatalf("job %d fired with %v at %v", a.label, now, a.h.e.Now())
	}
	a.h.fire(a.label)
}

// job submits a resource job of dur, as Run with an Action or as Exec
// with a closure.
func (h *diffHarness) job(dur Time, action bool) {
	l := h.labels
	h.labels++
	if action {
		h.res.Run(dur, &labelAction{h, l})
	} else {
		h.res.Exec(dur, func(end Time) { (&labelAction{h, l}).Fire(end) })
	}
	h.refRequest(refJob{label: l, dur: dur})
}

// acquire requests a slot with Acquire; the holder records its label
// when granted and releases the slot hold later.
func (h *diffHarness) acquire(hold Time) {
	l := h.labels
	h.labels++
	h.res.Acquire(func(start Time) {
		if start != h.e.Now() {
			h.t.Fatalf("acquire %d granted at %v, now %v", l, start, h.e.Now())
		}
		h.got = append(h.got, l)
		h.e.After(hold, func() {
			h.got = append(h.got, l+holdLabel)
			h.res.Release()
		})
	})
	h.refRequest(refJob{label: l, acquire: true, hold: hold})
}

func (h *diffHarness) refRequest(j refJob) {
	if h.rr.busy < h.rr.slots {
		h.rr.busy++
		h.refStart(j)
		return
	}
	h.rr.queue = append(h.rr.queue, j)
}

func (h *diffHarness) refStart(j refJob) {
	if j.acquire {
		h.want = append(h.want, j.label)
		h.r.at(h.r.now+j.hold, j.label+holdLabel, refHoldEnd)
		return
	}
	h.r.at(h.r.now+j.dur, j.label, refJobDone)
}

func (h *diffHarness) refRelease() {
	if len(h.rr.queue) > 0 {
		j := h.rr.queue[0]
		h.rr.queue = h.rr.queue[1:]
		h.refStart(j)
		return
	}
	h.rr.busy--
}

func (h *diffHarness) cancel(i int) {
	h.e.Cancel(h.ids[i])
	h.r.cancel(h.seqs[i])
}

// step runs one Step on the engine; the reference is stepped by the
// same number of dispatches the engine made, so follow-ups line up.
func (h *diffHarness) step() {
	ok := h.e.Step()
	if e, rok := h.r.pop(h.r.now + 1<<62); rok != ok {
		h.t.Fatalf("Step = %v, reference = %v", ok, rok)
	} else if ok {
		h.refDispatch(e)
	}
}

func (h *diffHarness) runUntil(deadline Time) {
	h.e.RunUntil(deadline)
	for {
		e, ok := h.r.pop(deadline)
		if !ok {
			break
		}
		h.refDispatch(e)
	}
	if h.r.now < deadline {
		h.r.now = deadline
	}
}

func (h *diffHarness) check(op string) {
	h.t.Helper()
	if !slices.Equal(h.got, h.want) {
		h.t.Fatalf("after %s: dispatched %v, reference %v", op, h.got, h.want)
	}
	if h.e.Executed() != h.r.executed || h.e.Pending() != len(h.r.live) || h.e.Now() != h.r.now {
		h.t.Fatalf("after %s: executed %d pending %d now %v, reference %d %d %v",
			op, h.e.Executed(), h.e.Pending(), h.e.Now(), h.r.executed, len(h.r.live), h.r.now)
	}
	if h.res.Busy() != h.rr.busy || h.res.QueueLen() != len(h.rr.queue) {
		h.t.Fatalf("after %s: resource busy %d queued %d, reference %d %d",
			op, h.res.Busy(), h.res.QueueLen(), h.rr.busy, len(h.rr.queue))
	}
}

// TestEngineMatchesReference interleaves At, After, Cancel (of pending,
// fired and already-cancelled events), sorted batches, Step and
// RunUntil at random, together with jobs on a 1–3 slot Resource: Exec
// (closure) and Run (Action) jobs and Acquire/Release pairs. It
// requires the engine to dispatch in the reference's (at, seq) order
// with the same Executed, Pending and Now, and the resource to grant
// slots FIFO, releasing a finished job's slot before its action fires.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots := 1 + int(seed%3)
		e := NewEngine()
		h := &diffHarness{t: t, e: e, r: &refEngine{}, res: NewResource(e, slots), rr: &refResource{slots: slots}}
		for op := 0; op < 2000; op++ {
			now := h.e.Now()
			switch k := rng.Intn(13); {
			case k < 3:
				h.at(now + Time(rng.Intn(20)))
				h.check("At")
			case k < 4:
				l := h.labels
				h.labels++
				d := Time(rng.Intn(20))
				h.ids = append(h.ids, h.e.After(d, func() { h.fire(l) }))
				h.seqs = append(h.seqs, h.r.at(h.r.now+d, l, refPlain))
				h.check("After")
			case k < 6:
				if len(h.ids) > 0 {
					// Picks any ID: pending, fired, or cancelled
					// before, so cancel-after-fire and double cancel
					// both occur.
					h.cancel(rng.Intn(len(h.ids)))
					h.check("Cancel")
				}
			case k < 7:
				times := make([]Time, rng.Intn(6))
				for i := range times {
					times[i] = now + Time(rng.Intn(30))
				}
				slices.Sort(times)
				h.batch(times)
				h.check("AtSorted")
			case k < 9:
				h.step()
				h.check("Step")
			case k < 10:
				h.runUntil(now + Time(rng.Intn(15)))
				h.check("RunUntil")
			case k < 12:
				h.job(Time(rng.Intn(20)), k == 11)
				h.check("Run/Exec")
			default:
				h.acquire(Time(rng.Intn(20)))
				h.check("Acquire")
			}
		}
		h.e.Run()
		for {
			e, ok := h.r.pop(1 << 62)
			if !ok {
				break
			}
			h.refDispatch(e)
		}
		h.check("Run")
		if h.res.Busy() != 0 {
			t.Fatalf("seed %d: %d slots still busy after the run", seed, h.res.Busy())
		}
	}
}
