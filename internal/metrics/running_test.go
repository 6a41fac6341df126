package metrics

import (
	"math/rand"
	"testing"

	"cxlfork/internal/des"
)

// runningPair feeds a RunningPercentile and a LatencyRecorder the same
// samples and checks after every one that the tracker reads the
// recorder's nearest-rank percentile.
type runningPair struct {
	t   *testing.T
	p   float64
	run *RunningPercentile
	ref *LatencyRecorder
}

func newRunningPair(t *testing.T, p float64) *runningPair {
	return &runningPair{t: t, p: p, run: NewRunningPercentile(p), ref: NewLatencyRecorder()}
}

func (q *runningPair) record(d des.Time) {
	q.t.Helper()
	q.run.Record(d)
	q.ref.Record(d)
	if got, want := q.run.Value(), q.ref.Percentile(q.p); got != want || q.run.Count() != q.ref.Count() {
		q.t.Fatalf("after %d samples (last %v): running P%g %v (count %d), recorder %v",
			q.ref.Count(), d, q.p, got, q.run.Count(), want)
	}
}

func (q *runningPair) reset() {
	q.run.Reset()
	q.ref.Reset()
	if q.run.Value() != 0 || q.run.Count() != 0 {
		q.t.Fatalf("after Reset: value %v count %d, want 0 and 0", q.run.Value(), q.run.Count())
	}
}

// FuzzRunningPercentile checks the running P99 against the recorder's
// after every sample. Each input byte is one sample, except 0xff, which
// resets both; a narrow value range makes ties common.
func FuzzRunningPercentile(f *testing.F) {
	f.Add([]byte{5, 5, 3, 5, 3, 3, 9, 0, 9, 5})
	f.Add(make([]byte, 150))                              // all equal
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0xff, 3}) // increasing, then reset
	f.Add([]byte{200, 150, 100, 90, 80, 70, 60, 50, 40, 30, 20, 10, 1, 0})
	inc, dec := make([]byte, 201), make([]byte, 201)
	for i := range inc {
		inc[i], dec[i] = byte(i), byte(200-i)
	}
	f.Add(inc)
	f.Add(dec)
	f.Fuzz(func(t *testing.T, data []byte) {
		q := newRunningPair(t, 99)
		for _, b := range data {
			if b == 0xff {
				q.reset()
				continue
			}
			q.record(des.Time(b))
		}
	})
}

// TestRunningPercentileEveryCount checks every sample count from 1 to
// 200 for several sample orders, crossing P99's nearest-rank steps at
// n = 100 (rank 99) and n = 101 (rank 100).
func TestRunningPercentileEveryCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name   string
		sample func(i int) des.Time
	}{
		{"increasing", func(i int) des.Time { return des.Time(i + 1) }},
		{"decreasing", func(i int) des.Time { return des.Time(200 - i) }},
		{"all equal", func(int) des.Time { return 7 }},
		{"ties", func(i int) des.Time { return des.Time(i % 5) }},
		{"random", func(int) des.Time { return des.Time(rng.Intn(1000)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []float64{99, 50, 100} {
				q := newRunningPair(t, p)
				for i := 0; i < 200; i++ {
					q.record(tc.sample(i))
				}
			}
		})
	}
	// The increasing run's P99 is its rank itself: ceil(0.99·n).
	run := NewRunningPercentile(99)
	for n := 1; n <= 200; n++ {
		run.Record(des.Time(n))
		want := des.Time((99*n + 99) / 100)
		if got := run.Value(); got != want {
			t.Fatalf("P99 of 1..%d = %v, want %v", n, got, want)
		}
	}
}

// Once its heaps have grown, the tracker records without allocating.
func TestRunningPercentileAllocatesNothingOnceGrown(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	run := NewRunningPercentile(99)
	for i := 0; i < 1000; i++ {
		run.Record(des.Time(rng.Intn(1 << 20)))
	}
	run.Reset()
	allocs := testing.AllocsPerRun(500, func() {
		run.Record(des.Time(rng.Intn(1 << 20)))
		_ = run.Value()
	})
	if allocs != 0 {
		t.Fatalf("Record after Reset: %.1f allocations, want 0", allocs)
	}
}
