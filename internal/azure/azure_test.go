package azure

import (
	"math"
	"sort"
	"testing"
	"time"

	"cxlfork/internal/des"
)

func cfg(seed int64) TraceConfig {
	return TraceConfig{
		TotalRPS: 150,
		Duration: 60 * des.Second,
		Loads:    DefaultLoads([]string{"A", "B", "C"}),
		Seed:     seed,
	}
}

func TestGenerateSortedAndBounded(t *testing.T) {
	reqs := Generate(cfg(1))
	if len(reqs) == 0 {
		t.Fatal("empty trace")
	}
	if !sort.SliceIsSorted(reqs, func(i, j int) bool { return reqs[i].At < reqs[j].At }) {
		t.Fatal("trace not sorted")
	}
	for _, r := range reqs {
		if r.At < 0 || r.At >= 60*des.Second {
			t.Fatalf("arrival %v outside trace", r.At)
		}
	}
}

func TestMeanRateHitsTarget(t *testing.T) {
	// Over a long trace the realized rate converges on TotalRPS.
	c := cfg(2)
	c.Duration = 600 * des.Second
	reqs := Generate(c)
	st := Summarize(reqs, c.Duration)
	if math.Abs(st.MeanRPS-150)/150 > 0.15 {
		t.Fatalf("mean RPS = %.1f, want ≈150", st.MeanRPS)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(cfg(3))
	b := Generate(cfg(3))
	if len(a) != len(b) {
		t.Fatal("length differs across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
	c := Generate(cfg(4))
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestAllFunctionsPresent(t *testing.T) {
	reqs := Generate(cfg(5))
	st := Summarize(reqs, 60*des.Second)
	for _, fn := range []string{"A", "B", "C"} {
		if st.PerFunction[fn] == 0 {
			t.Fatalf("function %s has no arrivals", fn)
		}
	}
}

func TestBurstiness(t *testing.T) {
	c := cfg(6)
	c.Duration = 300 * des.Second
	reqs := Generate(c)
	st := Summarize(reqs, c.Duration)
	// With duty cycle 1/6 and burst factor 8, bursts should carry a
	// disproportionate share of arrivals (8/13 ≈ 62%).
	if st.BurstShare < 0.4 || st.BurstShare > 0.85 {
		t.Fatalf("burst share = %.2f, want pronounced bursts", st.BurstShare)
	}
	// Peak 1-second rate should far exceed the mean.
	perSec := make(map[int]int)
	for _, r := range reqs {
		perSec[int(r.At/des.Second)]++
	}
	peak := 0
	for _, n := range perSec {
		if n > peak {
			peak = n
		}
	}
	if float64(peak) < 1.5*st.MeanRPS {
		t.Fatalf("peak %d not bursty vs mean %.0f", peak, st.MeanRPS)
	}
}

func TestWeightsRespected(t *testing.T) {
	c := TraceConfig{
		TotalRPS: 100,
		Duration: 300 * des.Second,
		Seed:     7,
		Loads: []FunctionLoad{
			{Function: "heavy", Weight: 3, BurstFactor: 1, MeanBurst: des.Second, MeanCalm: des.Second},
			{Function: "light", Weight: 1, BurstFactor: 1, MeanBurst: des.Second, MeanCalm: des.Second},
		},
	}
	st := Summarize(Generate(c), c.Duration)
	ratio := float64(st.PerFunction["heavy"]) / float64(st.PerFunction["light"])
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("weight ratio = %.2f, want ≈3", ratio)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil, 0)
	if st.Requests != 0 || st.MeanRPS != 0 || st.BurstShare != 0 {
		t.Fatal("empty summary not zero")
	}
}

// TestAllZeroWeightsEmptyTrace pins the degenerate mix: weights that are
// all zero leave no rate to share (each share is 0/0), so the trace is
// empty at any length and comes back at once instead of emitting an
// arrival every virtual nanosecond.
func TestAllZeroWeightsEmptyTrace(t *testing.T) {
	c := cfg(4)
	for i := range c.Loads {
		c.Loads[i].Weight = 0
	}
	for _, dur := range []des.Time{des.Millisecond, 3600 * des.Second} {
		c.Duration = dur
		done := make(chan []Request, 1)
		go func() { done <- Generate(c) }()
		select {
		case reqs := <-done:
			if len(reqs) != 0 {
				t.Fatalf("duration %v: %d arrivals from an all-zero mix, want 0", dur, len(reqs))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("duration %v: Generate did not return within 10s", dur)
		}
	}
}
