package metrics

import (
	"math/rand"
	"testing"

	"cxlfork/internal/des"
)

// TestIncrementalMatchesFullSort drives one recorder through random
// Record, Percentile, Quantile, Presort and Reset sequences, so reads
// interleave with samples, and checks every answer against a recorder
// rebuilt from the same samples, whose first query is its first sort.
func TestIncrementalMatchesFullSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewLatencyRecorder()
		var samples []des.Time
		var sum des.Time
		fresh := func() *LatencyRecorder {
			ref := NewLatencyRecorder()
			for _, s := range samples {
				ref.Record(s)
			}
			return ref
		}
		for op := 0; op < 3000; op++ {
			switch k := rng.Intn(20); {
			case k < 12:
				// A narrow value range makes ties common.
				for n := rng.Intn(8); n >= 0; n-- {
					s := des.Time(rng.Intn(50))
					r.Record(s)
					samples = append(samples, s)
					sum += s
				}
			case k < 15:
				p := []float64{0, 100, rng.Float64() * 100}[rng.Intn(3)]
				if got, want := r.Percentile(p), fresh().Percentile(p); got != want {
					t.Fatalf("seed %d op %d: Percentile(%g) = %v, full sort %v", seed, op, p, got, want)
				}
			case k < 18:
				p := rng.Float64() * 100
				if got, want := r.Quantile(p), fresh().Quantile(p); got != want {
					t.Fatalf("seed %d op %d: Quantile(%g) = %v, full sort %v", seed, op, p, got, want)
				}
			case k < 19:
				r.Presort()
			default:
				if rng.Intn(10) == 0 {
					r.Reset()
					samples, sum = samples[:0], 0
				}
			}
			if r.Count() != len(samples) || r.Sum() != sum {
				t.Fatalf("seed %d op %d: count %d sum %v, reference %d %v",
					seed, op, r.Count(), r.Sum(), len(samples), sum)
			}
		}
	}
}
