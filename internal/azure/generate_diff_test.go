package azure

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cxlfork/internal/des"
)

// requireReference fails t unless Generate and the append-and-sort
// reference return the same trace, request for request.
func requireReference(t *testing.T, c TraceConfig) {
	t.Helper()
	got, want := Generate(c), refGenerate(c)
	if len(got) != len(want) {
		t.Fatalf("%d arrivals, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("arrival %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
}

var loadNames = []string{"Float", "Json", "Bert", "Linpack", "Chameleon", "Matmul", "Pyaes", "Image", "Video", "Compress"}

// weighted returns DefaultLoads over the first len(w) names with
// weights w.
func weighted(w ...float64) []FunctionLoad {
	loads := DefaultLoads(loadNames[:len(w)])
	for i := range loads {
		loads[i].Weight = w[i]
	}
	return loads
}

func TestGenerateMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  TraceConfig
	}{
		{"three equal", cfg(1)},
		{"one load", TraceConfig{TotalRPS: 150, Duration: 60 * des.Second, Loads: weighted(1), Seed: 2}},
		{"ten loads", TraceConfig{TotalRPS: 600, Duration: 30 * des.Second, Loads: weighted(1, 1, 1, 1, 1, 1, 1, 1, 1, 1), Seed: 3}},
		{"unequal weights", TraceConfig{TotalRPS: 200, Duration: 40 * des.Second, Loads: weighted(3, 1, 0.1, 5), Seed: 4}},
		{"one zero weight", TraceConfig{TotalRPS: 100, Duration: 20 * des.Second, Loads: weighted(1, 0, 2), Seed: 5}},
		{"all zero weights", TraceConfig{TotalRPS: 100, Duration: 20 * des.Second, Loads: weighted(0, 0), Seed: 6}},
		{"1 rps", TraceConfig{TotalRPS: 1, Duration: 120 * des.Second, Loads: weighted(1, 1), Seed: 7}},
		{"1 ms", TraceConfig{TotalRPS: 150, Duration: des.Millisecond, Loads: weighted(1, 1, 1), Seed: 8}},
		{"1 ms at 1M rps", TraceConfig{TotalRPS: 1e6, Duration: des.Millisecond, Loads: weighted(1, 2), Seed: 9}},
		{"no loads", TraceConfig{TotalRPS: 100, Duration: des.Second, Seed: 10}},
		{"azure-1m shape", TraceConfig{TotalRPS: 2500, Duration: 40 * des.Second, Loads: weighted(1, 1), Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { requireReference(t, tc.cfg) })
	}
	for seed := int64(-3); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) { requireReference(t, cfg(seed)) })
	}
}

// FuzzGenerate drives seeds, 1–10 loads with arbitrary weights and
// burst factors, rates from 1 to 5,000 rps and durations from 1 ms to
// 4 s through Generate and the reference, which must agree exactly.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(149), uint16(1999), []byte{0x11, 0x11, 0x11})
	f.Add(int64(7), uint8(1), uint16(2499), uint16(999), []byte{0x71, 0x71})
	f.Add(int64(4), uint8(3), uint16(0), uint16(0), []byte{0, 0, 0, 0})
	f.Add(int64(-9), uint8(9), uint16(59), uint16(499), []byte{0, 5, 1, 9, 0, 2, 3, 1, 1, 8})
	f.Fuzz(func(t *testing.T, seed int64, n uint8, rps, ms uint16, shape []byte) {
		c := TraceConfig{
			TotalRPS: float64(1 + int(rps)%5000),
			Duration: des.Time(1+int(ms)%4000) * des.Millisecond,
			Loads:    DefaultLoads(loadNames[:1+int(n)%len(loadNames)]),
			Seed:     seed,
		}
		// Each shape byte sets one load's weight (low nibble) and burst
		// factor (1 + high nibble).
		for i, b := range shape {
			if i < len(c.Loads) {
				c.Loads[i].Weight = float64(b & 0x0f)
				c.Loads[i].BurstFactor = float64(1 + b>>4)
			}
		}
		requireReference(t, c)
	})
}

// TestMergeKeepsLoadOrderOnEqualTimes feeds merge runs whose arrivals
// tie across loads: at nanosecond resolution two functions can arrive
// at once, and the lower load index must go first, as in a stable sort
// of the concatenated runs.
func TestMergeKeepsLoadOrderOnEqualTimes(t *testing.T) {
	loads := weighted(1, 1, 1, 1)
	runs := [][]arrival{
		{{at: 1}, {at: 3}, {at: 5, burst: true}},
		{{at: 1}, {at: 2}, {at: 5}},
		nil,
		{{at: 1, burst: true}, {at: 5}, {at: 6}},
	}
	want := []Request{
		{1, "Float", false}, {1, "Json", false}, {1, "Linpack", true},
		{2, "Json", false}, {3, "Float", false},
		{5, "Float", true}, {5, "Json", false}, {5, "Linpack", false},
		{6, "Linpack", false},
	}
	if got := merge(loads, runs); !slices.Equal(got, want) {
		t.Fatalf("merge = %+v\nwant %+v", got, want)
	}

	// Dense ties over many loads: merge equals the stable sort of the
	// runs' concatenation.
	rng := rand.New(rand.NewSource(1))
	loads = weighted(1, 1, 1, 1, 1, 1, 1, 1, 1)
	runs = make([][]arrival, len(loads))
	var cat []Request
	for i := range runs {
		at := des.Time(0)
		for j := rng.Intn(200); j > 0; j-- {
			at += des.Time(1 + rng.Intn(3))
			a := arrival{at: at, burst: rng.Intn(2) == 0}
			runs[i] = append(runs[i], a)
			cat = append(cat, Request{At: a.at, Function: loads[i].Function, Burst: a.burst})
		}
	}
	slices.SortStableFunc(cat, func(a, b Request) int { return cmp.Compare(a.At, b.At) })
	if got := merge(loads, runs); !slices.Equal(got, cat) {
		t.Fatal("merge differs from the stable sort of the concatenated runs")
	}
}

// TestGenerateAllocatesPerRun pins the cost contract: a trace costs one
// allocation per load's run plus the output and a fixed few, however
// many arrivals it holds.
func TestGenerateAllocatesPerRun(t *testing.T) {
	for _, c := range []TraceConfig{
		{TotalRPS: 150, Duration: 10 * des.Second, Loads: weighted(1, 1), Seed: 7},
		{TotalRPS: 2500, Duration: 400 * des.Second, Loads: weighted(1, 1), Seed: 7},
	} {
		allocs := testing.AllocsPerRun(1, func() { Generate(c) })
		if limit := float64(len(c.Loads) + 5); allocs > limit {
			t.Errorf("%v rps over %v: %.0f allocations, want at most %.0f", c.TotalRPS, c.Duration, allocs, limit)
		}
	}
}

// BenchmarkGenerate generates AzureBench's trace (DefaultAzureBenchConfig:
// 1,000,000 requests over 400 s of Float and Json, seed 7).
func BenchmarkGenerate(b *testing.B) {
	c := TraceConfig{TotalRPS: 2500, Duration: 400 * des.Second, Loads: DefaultLoads([]string{"Float", "Json"}), Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(c)
	}
}
