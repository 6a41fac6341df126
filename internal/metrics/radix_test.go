package metrics

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cxlfork/internal/des"
)

// latencyShaped returns n request latencies like a porter replay's:
// mostly warm starts of tens of milliseconds, with a tail of cold
// starts up to a few seconds.
func latencyShaped(rng *rand.Rand, n int) []des.Time {
	s := make([]des.Time, n)
	for i := range s {
		v := 30e6 * rng.ExpFloat64()
		if rng.Intn(10) == 0 {
			v += 1e9 * rng.ExpFloat64()
		}
		s[i] = des.Time(v)
	}
	return s
}

// checkSortTimes sorts a copy of s with sortTimes and with slices.Sort
// and fails on any difference.
func checkSortTimes(t *testing.T, name string, s []des.Time) {
	t.Helper()
	got, want := slices.Clone(s), slices.Clone(s)
	sortTimes(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): sortTimes differs from slices.Sort", name, len(s))
	}
}

// TestSortTimesMatchesSlicesSort is the radix sort's differential test
// against slices.Sort, at sizes on both sides of radixMin.
func TestSortTimesMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 3 * radixMin, 1 << 17} {
		wide := make([]des.Time, n)
		for i := range wide {
			wide[i] = des.Time(rng.Int63()) // every digit varies
		}
		narrow := make([]des.Time, n) // many duplicates
		for i := range narrow {
			narrow[i] = des.Time(rng.Intn(50))
		}
		equal := make([]des.Time, n)
		for i := range equal {
			equal[i] = 12345
		}
		descending := make([]des.Time, n)
		for i := range descending {
			descending[i] = des.Time(n - i)
		}
		negative := latencyShaped(rng, n)
		if n > 0 {
			negative[rng.Intn(n)] = -7
		}
		for name, s := range map[string][]des.Time{
			"latency-shaped": latencyShaped(rng, n),
			"random 63-bit":  wide,
			"duplicates":     narrow,
			"all equal":      equal,
			"all zero":       make([]des.Time, n),
			"descending":     descending,
			"one negative":   negative,
			"max int64":      append(latencyShaped(rng, n), 1<<63-1),
		} {
			checkSortTimes(t, name, s)
		}
	}
}

// FuzzSortTimes reads each 8 input bytes as one value. radixSort must
// sort the values with their sign bit cleared as slices.Sort does, and
// sortTimes the values themselves, repeated past radixMin so that its
// choice of sort runs too.
func FuzzSortTimes(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 64)) // all zero
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 3, 8, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 9, 0, 0, 0, 0, 0, 0, 0}) // -7 and 9
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]des.Time, len(data)/8)
		for i := range vals {
			vals[i] = des.Time(binary.LittleEndian.Uint64(data[8*i:]))
		}
		pos := make([]des.Time, len(vals))
		var hi des.Time
		for i, v := range vals {
			pos[i] = v & (1<<63 - 1)
			hi = max(hi, pos[i])
		}
		want := slices.Clone(pos)
		slices.Sort(want)
		radixSort(pos, hi)
		if !slices.Equal(pos, want) {
			t.Fatalf("radixSort(%v) = %v, want %v", vals, pos, want)
		}
		if len(vals) == 0 {
			return
		}
		var tiled []des.Time
		for len(tiled) <= radixMin {
			tiled = append(tiled, vals...)
		}
		checkSortTimes(t, "tiled", tiled)
	})
}

// BenchmarkSortTimes compares slices.Sort with radixSort on
// latency-shaped samples around radixMin and at a million.
func BenchmarkSortTimes(b *testing.B) {
	for _, n := range []int{512, 1024, 1536, radixMin, 4096, 1 << 20} {
		in := latencyShaped(rand.New(rand.NewSource(1)), n)
		s := make([]des.Time, n)
		for _, impl := range []struct {
			name string
			sort func([]des.Time)
		}{
			{"slices", func(s []des.Time) { slices.Sort(s) }},
			{"radix", func(s []des.Time) { radixSort(s, slices.Max(s)) }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", impl.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(s, in)
					impl.sort(s)
				}
			})
		}
	}
}
