package metrics

import (
	"math"
	"math/rand"
	"testing"

	"cxlfork/internal/des"
)

// sameStats fails the test unless u reports what want, a recorder
// holding the same samples, does.
func sameStats(t *testing.T, ctx string, u, want *LatencyRecorder) {
	t.Helper()
	if u.Count() != want.Count() || u.Sum() != want.Sum() || u.Mean() != want.Mean() || u.Max() != want.Max() {
		t.Fatalf("%s: count/sum/mean/max %d/%d/%d/%d, want %d/%d/%d/%d", ctx,
			u.Count(), u.Sum(), u.Mean(), u.Max(), want.Count(), want.Sum(), want.Mean(), want.Max())
	}
	for _, p := range []float64{-1, 0, 0.1, 1, 50, 99, 99.9, 100, 150} {
		if got, w := u.Percentile(p), want.Percentile(p); got != w {
			t.Fatalf("%s: Percentile(%v) = %d, want %d", ctx, p, got, w)
		}
	}
	for _, p := range []float64{-1, 0, 0.1, 1, 10, 25, 33.3, 50, 66.7, 75, 90, 99, 99.9, 100, 150} {
		if got, w := u.Quantile(p), want.Quantile(p); got != w {
			t.Fatalf("%s: Quantile(%v) = %d, want %d", ctx, p, got, w)
		}
	}
}

// TestUnionMatchesSingleRecorder is Union's differential test: random
// parts (empty, single-sample and large ones, with values repeated
// within and across parts, and seeds that span the whole int64 range)
// must report exactly what one recorder of all their samples reports,
// both flat and nested, including samples recorded into a part after
// a query.
func TestUnionMatchesSingleRecorder(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		draw := func() des.Time {
			switch {
			case seed%10 == 0 && rng.Intn(8) == 0:
				return des.Time([]int64{math.MinInt64, -1, math.MaxInt64}[rng.Intn(3)])
			case rng.Intn(4) == 0:
				return des.Time(rng.Int63n(1 << 40))
			}
			return des.Time(rng.Intn(50))
		}
		parts := make([]*LatencyRecorder, rng.Intn(6))
		whole := NewLatencyRecorder()
		for i := range parts {
			parts[i] = NewLatencyRecorder()
			n := rng.Intn(300)
			if k := rng.Intn(4); k < 2 {
				n = k // empty or single-sample part
			}
			for j := 0; j < n; j++ {
				v := draw()
				parts[i].Record(v)
				whole.Record(v)
			}
		}
		split := len(parts) / 2
		flat := Union(parts...)
		nested := Union(Union(parts[:split]...), Union(parts[split:]...))
		sameStats(t, "flat", flat, whole)
		sameStats(t, "nested", nested, whole)
		if len(parts) == 0 {
			continue
		}
		for round := 0; round < 3; round++ {
			for k := rng.Intn(20); k > 0; k-- {
				v := draw()
				parts[rng.Intn(len(parts))].Record(v)
				whole.Record(v)
			}
			sameStats(t, "flat after Record", flat, whole)
			sameStats(t, "nested after Record", nested, whole)
		}
	}
}

// TestUnionIsReadOnly: a union stores no samples, so every mutator
// panics instead of silently recording into nothing.
func TestUnionIsReadOnly(t *testing.T) {
	u := Union(NewLatencyRecorder())
	for name, mutate := range map[string]func(){
		"Record": func() { u.Record(1) },
		"Grow":   func() { u.Grow(1) },
		"Reset":  func() { u.Reset() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a union did not panic", name)
				}
			}()
			mutate()
		}()
	}
}
