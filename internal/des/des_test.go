package des

import (
	"testing"
)

func TestAdvance(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("fresh engine at %v", e.Now())
	}
	e.Advance(5 * Microsecond)
	e.Advance(10 * Nanosecond)
	if got := e.Now(); got != 5010 {
		t.Fatalf("Now = %v, want 5010ns", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative advance")
		}
	}()
	NewEngine().Advance(-1)
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEventTieBreakByInsertion(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order broken: %v", order)
		}
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 5 {
			e.After(10, step)
		}
	}
	e.After(10, step)
	e.Run()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, func() { fired = true })
	e.Cancel(id)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestPending(t *testing.T) {
	e := NewEngine()
	a := e.At(10, func() {})
	e.At(20, func() {})
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	e.Cancel(a)
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 10,20", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired = %v after draining", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Advance(100)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	e.At(50, func() {})
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var done []int
	for i := 0; i < 4; i++ {
		i := i
		r.Exec(Time(100), func(end Time) { done = append(done, i) })
	}
	if r.Busy() != 2 || r.QueueLen() != 2 {
		t.Fatalf("busy=%d queue=%d, want 2/2", r.Busy(), r.QueueLen())
	}
	e.Run()
	if len(done) != 4 {
		t.Fatalf("done = %v", done)
	}
	// First two finish at t=100, next two at t=200.
	if e.Now() != 200 {
		t.Fatalf("clock = %v, want 200", e.Now())
	}
}

func TestResourceReleaseWithoutAcquirePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on stray release")
		}
	}()
	r.Release()
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Error("Seconds conversion wrong")
	}
	if (2500 * Nanosecond).Micros() != 2.5 {
		t.Error("Micros conversion wrong")
	}
	if (250 * Microsecond).Millis() != 0.25 {
		t.Error("Millis conversion wrong")
	}
}

// TestCancelAfterRecycleIsNoOp pins the pooled-event safety property:
// an EventID whose event already fired must not cancel the unrelated
// event that reused the recycled struct.
func TestCancelAfterRecycleIsNoOp(t *testing.T) {
	e := NewEngine()
	fired := 0
	stale := e.At(1, func() {})
	if !e.Step() {
		t.Fatal("first event did not fire")
	}
	// The freed struct is reused by the very next schedule.
	e.At(2, func() { fired++ })
	e.Cancel(stale) // must not touch the recycled slot
	e.Run()
	if fired != 1 {
		t.Fatalf("stale Cancel killed a recycled event (fired=%d)", fired)
	}
}

// TestCancelStillWorksOnLiveEvents guards the other side: a live ID
// cancels exactly its own event.
func TestCancelStillWorksOnLiveEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	id := e.At(1, func() { fired++ })
	e.At(2, func() { fired += 10 })
	e.Cancel(id)
	e.Run()
	if fired != 10 {
		t.Fatalf("fired=%d, want 10 (only the uncancelled event)", fired)
	}
	if e.Executed() != 1 {
		t.Fatalf("executed=%d, want 1", e.Executed())
	}
}
