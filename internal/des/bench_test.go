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

// jobChain is a Resource.Run chain: each finished job submits the next
// with the same Action.
type jobChain struct {
	r     *Resource
	count int
	total int
}

func (c *jobChain) Fire(Time) {
	if c.count++; c.count < c.total {
		c.r.Run(Microsecond, c)
	}
}

// TestZeroAllocsPerEventSteadyState is the allocation ceiling of the
// pooled event path: once the free list is primed, dispatching an
// event and scheduling its successor allocates nothing, whether the
// successor is a plain event or a Resource job that reuses one Action.
func TestZeroAllocsPerEventSteadyState(t *testing.T) {
	const warm, total = 1000, 101000
	for _, tc := range []struct {
		name  string
		start func(e *Engine) *int // starts the chain, returns its count
	}{
		{"event", func(e *Engine) *int {
			count := new(int)
			var tick func()
			tick = func() {
				if *count++; *count < total {
					e.After(Microsecond, tick)
				}
			}
			e.After(Microsecond, tick)
			return count
		}},
		{"resource-run", func(e *Engine) *int {
			c := &jobChain{r: NewResource(e, 2), total: total}
			c.r.Run(Microsecond, c)
			return &c.count
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			count := tc.start(e)
			for *count < warm {
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
			if e.Executed() != total || *count != total {
				t.Fatalf("executed %d events for %d jobs, want %d", e.Executed(), *count, total)
			}
		})
	}
}
