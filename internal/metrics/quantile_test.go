package metrics

import (
	"testing"

	"cxlfork/internal/des"
)

// Regression: a single-sample series must report the sample itself for
// every quantile — the unguarded interpolation formula used to return
// 0 for P50.
func TestQuantileSingleSample(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(42 * des.Millisecond)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := r.Quantile(p); got != 42*des.Millisecond {
			t.Fatalf("Quantile(%g) = %v on single-sample series, want the sample", p, got)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	r := NewLatencyRecorder()
	for _, v := range []des.Time{30, 10, 20, 40} { // unsorted on purpose
		r.Record(v)
	}
	cases := []struct {
		p    float64
		want des.Time
	}{
		{0, 10},
		{25, 18}, // pos 0.75 between 10 and 20 → 17.5, rounds to 18
		{50, 25},
		{100, 40},
		{-5, 10},
		{150, 40},
	}
	for _, c := range cases {
		if got := r.Quantile(c.p); got != c.want {
			t.Fatalf("Quantile(%g) = %v, want %v", c.p, got, c.want)
		}
	}
	if r.Quantile(50) != 25 {
		t.Fatal("repeated Quantile must be stable")
	}
}

func TestQuantileEmpty(t *testing.T) {
	if got := NewLatencyRecorder().Quantile(50); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
}
