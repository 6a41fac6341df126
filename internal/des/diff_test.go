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
}

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

func (r *refEngine) at(t Time, label int) uint64 {
	r.live = append(r.live, refEvent{t, r.seq, label})
	r.seq++
	return r.seq - 1
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
// schedule none of their own.
const followLabel = 1_000_000

func (h *diffHarness) fire(label int) {
	h.got = append(h.got, label)
	h.follow(label, func(d Time, l int) { h.e.After(d, func() { h.fire(l) }) })
}

func (h *diffHarness) refFire(label int) {
	h.want = append(h.want, label)
	h.follow(label, func(d Time, l int) { h.r.at(h.r.now+d, l) })
}

func (h *diffHarness) at(t Time) {
	l := h.labels
	h.labels++
	h.ids = append(h.ids, h.e.At(t, func() { h.fire(l) }))
	h.seqs = append(h.seqs, h.r.at(t, l))
}

func (h *diffHarness) batch(times []Time) {
	l0 := h.labels
	h.labels += len(times)
	h.e.AtSorted(len(times), func(i int) Time { return times[i] }, func(i int) { h.fire(l0 + i) })
	for i, t := range times {
		h.r.at(t, l0+i)
	}
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
		h.refFire(e.label)
	}
}

func (h *diffHarness) runUntil(deadline Time) {
	h.e.RunUntil(deadline)
	for {
		e, ok := h.r.pop(deadline)
		if !ok {
			break
		}
		h.refFire(e.label)
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
}

// TestEngineMatchesReference interleaves At, After, Cancel (of pending,
// fired and already-cancelled events), sorted batches, Step and
// RunUntil at random, and requires the engine to dispatch in the
// reference's (at, seq) order with the same Executed, Pending and Now.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &diffHarness{t: t, e: NewEngine(), r: &refEngine{}}
		for op := 0; op < 2000; op++ {
			now := h.e.Now()
			switch k := rng.Intn(10); {
			case k < 3:
				h.at(now + Time(rng.Intn(20)))
				h.check("At")
			case k < 4:
				l := h.labels
				h.labels++
				d := Time(rng.Intn(20))
				h.ids = append(h.ids, h.e.After(d, func() { h.fire(l) }))
				h.seqs = append(h.seqs, h.r.at(h.r.now+d, l))
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
			default:
				h.runUntil(now + Time(rng.Intn(15)))
				h.check("RunUntil")
			}
		}
		h.e.Run()
		for {
			e, ok := h.r.pop(1 << 62)
			if !ok {
				break
			}
			h.refFire(e.label)
		}
		h.check("Run")
	}
}
