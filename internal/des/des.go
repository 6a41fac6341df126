package des

import "fmt"

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

// Action is what a scheduled event does: the engine calls Fire with the
// clock at the event's time. A long-lived record that implements Action
// (the porter's pooled requests and its instances) can be scheduled over
// and over without allocating, where a fresh closure per event would.
type Action interface{ Fire(now Time) }

// funcAction adapts a plain callback to an Action. A func value is
// pointer-shaped, so the conversion stores it in the interface without
// allocating.
type funcAction func()

func (f funcAction) Fire(Time) { f() }

// timeFunc adapts a callback that takes the firing time to an Action;
// Exec's done and Acquire's grant callback use it. A nil callback is a
// no-op.
type timeFunc func(now Time)

func (f timeFunc) Fire(now Time) {
	if f != nil {
		f(now)
	}
}

// event is a scheduled Action. Events are pooled: once dispatched or
// cancelled the struct returns to the owning engine's free list and its
// generation counter advances, so stale EventIDs cannot touch the
// recycled slot.
type event struct {
	at  Time
	seq uint64 // insertion order; tie-breaker for determinism
	gen uint32 // recycle generation; guards Cancel after reuse
	idx int    // position in the heap
	act Action
	// res is set on a Resource job's completion event: the job's slot
	// is released before act fires.
	res *Resource
}

// EventID identifies a scheduled event so it can be cancelled. The
// generation snapshot makes an ID single-use: after the event fires and
// its struct is recycled for a later schedule, the stale ID no longer
// matches and Cancel is a no-op.
type EventID struct {
	ev  *event
	gen uint32
}

// Engine is a single-threaded virtual clock plus event queue.
// It is not safe for concurrent use; simulations run on one goroutine.
// The heap holds only live events: Cancel removes its event, and a
// sorted batch (AtSorted) keeps only its next member on the heap.
type Engine struct {
	now      Time
	seq      uint64
	events   []*event // binary min-heap in (at, seq) order
	lazy     int      // batch members scheduled but not yet on the heap
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
func (e *Engine) At(t Time, fn func()) EventID { return e.Schedule(t, funcAction(fn)) }

// Schedule schedules a to fire at absolute time t (>= Now).
func (e *Engine) Schedule(t Time, a Action) EventID {
	if t < e.now {
		panic(fmt.Sprintf("des: schedule in the past: %v < now %v", t, e.now))
	}
	ev := e.schedule(t, a)
	return EventID{ev, ev.gen}
}

// schedule pushes a at t with the next sequence number.
func (e *Engine) schedule(t Time, a Action) *event {
	ev := e.push(t, e.seq, a)
	e.seq++
	return ev
}

// AtSorted schedules fn(i) at time at(i) for every i in [0, n). It
// dispatches exactly as n calls of At in index order would, so at must
// never decrease with i, but only the earliest undispatched member
// sits on the heap: the batch's sequence numbers are reserved up front,
// and each member pushes its successor with its reserved number when it
// fires. A million-arrival trace thus costs one heap slot instead of a
// million.
func (e *Engine) AtSorted(n int, at func(i int) Time, fn func(i int)) {
	if n <= 0 {
		return
	}
	if t := at(0); t < e.now {
		panic(fmt.Sprintf("des: schedule in the past: %v < now %v", t, e.now))
	}
	for i := 1; i < n; i++ {
		if at(i) < at(i-1) {
			panic(fmt.Sprintf("des: AtSorted times decrease at %d: %v < %v", i, at(i), at(i-1)))
		}
	}
	seq0 := e.seq
	e.seq += uint64(n)
	e.lazy += n - 1
	next := 0
	var fire funcAction
	fire = func() {
		i := next
		if next++; next < n {
			e.lazy--
			e.push(at(next), seq0+uint64(next), fire)
		}
		fn(i)
	}
	e.push(at(0), seq0, fire)
}

// push puts a new event on the heap.
func (e *Engine) push(t Time, seq uint64, a Action) *event {
	ev := e.alloc()
	ev.at, ev.seq, ev.act = t, seq, a
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
	e.up(ev.idx)
	return ev
}

// before reports whether a dispatches ahead of b: earlier time first,
// then insertion order. Sequence numbers are unique, so the order is
// total and the dispatch order does not depend on the heap's shape.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// up moves the event at heap position i toward the root while it
// dispatches ahead of its parent.
func (e *Engine) up(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !before(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

// down moves the event at heap position i toward the leaves while a
// child dispatches ahead of it, and reports whether it moved.
func (e *Engine) down(i int) bool {
	h := e.events
	ev := h[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].idx = i
		i = c
	}
	h[i] = ev
	ev.idx = i
	return i > i0
}

// remove takes the event at heap position i off the heap: the last
// event fills the hole and sifts down, or up if it cannot go down.
func (e *Engine) remove(i int) *event {
	n := len(e.events) - 1
	ev, last := e.events[i], e.events[n]
	e.events[n] = nil
	e.events = e.events[:n]
	if i < n {
		e.events[i] = last
		if !e.down(i) {
			e.up(i)
		}
	}
	return ev
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

// recycle returns a popped or removed event to the free list. Bumping
// the generation first invalidates every EventID that still points here.
func (e *Engine) recycle(ev *event) {
	ev.act, ev.res = nil, nil
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

// Cancel removes a scheduled event from the heap. Cancelling an event
// that already fired or was already cancelled is a no-op: both recycle
// the event struct and advance its generation, so a stale ID no longer
// matches.
func (e *Engine) Cancel(id EventID) {
	if id.ev == nil || id.ev.gen != id.gen {
		return
	}
	e.recycle(e.remove(id.ev.idx))
}

// Executed reports the number of events dispatched since construction.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports the number of live scheduled events.
func (e *Engine) Pending() int { return len(e.events) + e.lazy }

// Step runs the single earliest event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	e.dispatch()
	return true
}

// dispatch pops the earliest event and runs it.
func (e *Engine) dispatch() {
	ev := e.remove(0)
	e.now = ev.at
	act, res := ev.act, ev.res
	// Recycle before dispatch: if the action schedules a follow-up event
	// it reuses this struct, keeping the steady state allocation-free.
	e.recycle(ev)
	e.executed++
	if res != nil {
		// A finished Resource job frees its slot first; the release may
		// grant the slot to the next waiter before act runs.
		res.Release()
	}
	if act != nil {
		act.Fire(e.now)
	}
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

// Run drains the event queue. Events may schedule further events.
func (e *Engine) Run() {
	for !e.stopped && e.Step() {
	}
}

// RunUntil processes events with timestamps <= deadline, then sets the
// clock to the deadline. A Stop from inside an event ends the loop
// early without touching the clock.
func (e *Engine) RunUntil(deadline Time) {
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= deadline {
		e.dispatch()
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
	queue []job
}

// job is a slot request waiting in a Resource's queue. A Run job holds
// its slot for dur and then fires act; an Acquire waiter (dur == held)
// fires act when granted and gives the slot back with Release.
type job struct {
	dur Time
	act Action
}

// held marks an Acquire waiter's job.
const held Time = -1

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
func (r *Resource) Acquire(fn func(start Time)) { r.request(job{held, timeFunc(fn)}) }

// Run occupies a slot for dur virtual nanoseconds, starting as soon as
// one frees, then fires a (which may be nil) at the completion time.
// The completion event is scheduled when the slot is granted, and the
// slot is released before a fires, so a queued job starts at the same
// instant.
func (r *Resource) Run(dur Time, a Action) {
	if dur < 0 {
		panic(fmt.Sprintf("des: negative job duration %d", dur))
	}
	r.request(job{dur, a})
}

// Exec is Run with a plain callback that receives the completion time.
func (r *Resource) Exec(dur Time, done func(end Time)) { r.Run(dur, timeFunc(done)) }

// request grants j a free slot or queues it.
func (r *Resource) request(j job) {
	if r.busy < r.slots {
		r.busy++
		r.start(j)
		return
	}
	r.queue = append(r.queue, j)
}

// start begins j on a granted slot.
func (r *Resource) start(j job) {
	if j.dur == held {
		j.act.Fire(r.eng.now)
		return
	}
	r.eng.schedule(r.eng.now+j.dur, j.act).res = r
}

// Release frees a slot, immediately granting it to the head of the queue
// if any.
func (r *Resource) Release() {
	if r.busy <= 0 {
		panic("des: release without acquire")
	}
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue[0] = job{}
		r.queue = r.queue[1:]
		r.start(next)
		return
	}
	r.busy--
}
