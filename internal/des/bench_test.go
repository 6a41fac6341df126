package des

import (
	"runtime"
	"testing"
)

func BenchmarkAdvance(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Advance(100)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkResourceExec(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, 8)
	for i := 0; i < b.N; i++ {
		r.Exec(100, nil)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// TestZeroAllocsPerEventSteadyState is the allocation ceiling of the
// pooled event path: once the free list is primed, dispatching an
// event and scheduling its successor allocates nothing.
func TestZeroAllocsPerEventSteadyState(t *testing.T) {
	const warm, total = 1000, 101000
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < total {
			e.After(Microsecond, tick)
		}
	}
	e.After(Microsecond, tick)
	for count < warm {
		if !e.Step() {
			t.Fatal("queue drained during warmup")
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.Run()
	runtime.ReadMemStats(&m1)
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(total-warm)
	if perEvent > 0.001 {
		t.Fatalf("steady state allocates %.4f objects/event, want 0", perEvent)
	}
	if e.Executed() != total {
		t.Fatalf("executed %d events, want %d", e.Executed(), total)
	}
}
