package des

import (
	"container/heap"
	"fmt"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Common durations, mirroring time.Duration style but for virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// String renders a Time with an adaptive unit, for experiment output.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual time to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts a virtual time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Event is a scheduled callback. Events are pooled: once dispatched (or
// popped dead) the struct returns to the owning engine's free list and
// its generation counter advances, so stale EventIDs cannot touch the
// recycled slot.
type event struct {
	at   Time
	seq  uint64 // insertion order; tie-breaker for determinism
	gen  uint32 // recycle generation; guards Cancel after reuse
	fn   func()
	dead bool
	idx  int
}

// EventID identifies a scheduled event so it can be cancelled. The
// generation snapshot makes an ID single-use: after the event fires and
// its struct is recycled for a later schedule, the stale ID no longer
// matches and Cancel is a no-op.
type EventID struct {
	ev  *event
	gen uint32
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded virtual clock plus event queue.
// It is not safe for concurrent use; simulations run on one goroutine.
type Engine struct {
	now      Time
	seq      uint64
	events   eventHeap
	free     []*event // recycled event structs; hot path is alloc-free
	executed uint64
	stopped  bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Advance moves the clock forward by d. It panics on negative d, which
// always indicates an accounting bug.
func (e *Engine) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative advance %d", d))
	}
	e.now += d
}

// At schedules fn to run at absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("des: schedule in the past: %v < now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	heap.Push(&e.events, ev)
	return EventID{ev, ev.gen}
}

// alloc takes an event struct from the free list, or the heap allocator
// when the pool is dry (cold start, or a new high-water mark of pending
// events).
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a popped event to the free list. Bumping the
// generation first invalidates every EventID that still points here.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.dead = false
	ev.gen++
	e.free = append(e.free, ev)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %d", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an event
// that already fired is a no-op: firing recycles the event struct and
// advances its generation, so a stale ID no longer matches.
func (e *Engine) Cancel(id EventID) {
	if id.ev != nil && id.ev.gen == id.gen {
		id.ev.dead = true
	}
}

// Executed reports the number of events dispatched since construction.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports the number of live scheduled events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.events {
		if !ev.dead {
			n++
		}
	}
	return n
}

// Step runs the single earliest event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		fn := ev.fn
		// Recycle before dispatch: if fn schedules a follow-up event it
		// reuses this struct, keeping the steady state allocation-free.
		e.recycle(ev)
		e.executed++
		fn()
		return true
	}
	return false
}

// Stop makes the in-flight Run or RunUntil return after the current
// event finishes, leaving the remaining queue unexecuted. It exists for
// the serving layer's cancellation path: a session's telemetry sink —
// which runs on the engine's own goroutine, inside an event — calls
// Stop when its context is done, and the replay unwinds cleanly at the
// next event boundary. Stop is terminal for the engine: the abandoned
// queue is never drained, so a stopped simulation's partial results
// must be treated as such (the facade surfaces this as ErrInterrupted).
// Call it only from the goroutine running the engine.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Run drains the event queue. Events may schedule further events.
func (e *Engine) Run() {
	for !e.stopped && e.Step() {
	}
}

// RunUntil processes events with timestamps <= deadline, then sets the
// clock to the deadline. A Stop from inside an event ends the loop
// early without touching the clock.
func (e *Engine) RunUntil(deadline Time) {
	for !e.stopped && len(e.events) > 0 {
		// Peek.
		for len(e.events) > 0 && e.events[0].dead {
			e.recycle(heap.Pop(&e.events).(*event))
		}
		if len(e.events) == 0 {
			break
		}
		if e.events[0].at > deadline {
			break
		}
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		fn := ev.fn
		e.recycle(ev)
		e.executed++
		fn()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// Every schedules fn to run every period nanoseconds of virtual time,
// starting one period from now, until fn returns false. The background
// maintenance loops (capacity reclaim, A-bit reset) use it so their
// cadence lives on the same deterministic event heap as the work they
// observe. The first tick returning false ends the series; no EventID
// is exposed because the predicate is the cancellation.
func (e *Engine) Every(period Time, fn func() bool) {
	if period <= 0 {
		panic(fmt.Sprintf("des: non-positive period %d", period))
	}
	var tick func()
	tick = func() {
		if !fn() {
			return
		}
		e.After(period, tick)
	}
	e.After(period, tick)
}

// Resource is a FIFO server pool with a fixed number of slots: the model
// for CPU cores on a node. Work items queue when all slots are busy.
type Resource struct {
	eng   *Engine
	slots int
	busy  int
	queue []func(start Time)
}

// NewResource returns a resource with n slots on engine e.
func NewResource(e *Engine, n int) *Resource {
	if n <= 0 {
		panic("des: resource needs at least one slot")
	}
	return &Resource{eng: e, slots: n}
}

// Busy reports the number of occupied slots.
func (r *Resource) Busy() int { return r.busy }

// QueueLen reports the number of waiting work items.
func (r *Resource) QueueLen() int { return len(r.queue) }

// Acquire requests a slot. fn runs (is called) at the virtual time the
// slot is granted, receiving that time. The caller must later call
// Release exactly once per granted slot.
func (r *Resource) Acquire(fn func(start Time)) {
	if r.busy < r.slots {
		r.busy++
		fn(r.eng.Now())
		return
	}
	r.queue = append(r.queue, fn)
}

// Release frees a slot, immediately granting it to the head of the queue
// if any.
func (r *Resource) Release() {
	if r.busy <= 0 {
		panic("des: release without acquire")
	}
	if len(r.queue) > 0 {
		next := r.queue[0]
		copy(r.queue, r.queue[1:])
		r.queue = r.queue[:len(r.queue)-1]
		next(r.eng.Now())
		return
	}
	r.busy--
}

// Exec is the common acquire→advance→release pattern for one-shot jobs:
// it occupies a slot for dur virtual nanoseconds starting as soon as a
// slot frees, then calls done with the completion time.
func (r *Resource) Exec(dur Time, done func(end Time)) {
	r.Acquire(func(start Time) {
		r.eng.At(start+dur, func() {
			r.Release()
			if done != nil {
				done(r.eng.Now())
			}
		})
	})
}
