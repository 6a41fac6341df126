package azure

import (
	"math"
	"math/rand"

	"cxlfork/internal/des"
)

// Request is one function invocation arrival.
type Request struct {
	At       des.Time
	Function string
	// Burst marks arrivals generated during a burst period (useful for
	// analysis; the autoscaler does not see this field).
	Burst bool
}

// FunctionLoad configures one function's arrival process.
type FunctionLoad struct {
	// Function is the function name.
	Function string
	// Weight is the function's share of the aggregate request rate.
	Weight float64
	// BurstFactor multiplies the base rate during bursts (>= 1).
	BurstFactor float64
	// MeanBurst and MeanCalm are the expected durations of the burst
	// and calm states.
	MeanBurst, MeanCalm des.Time
}

// TraceConfig configures a generated trace.
type TraceConfig struct {
	// TotalRPS is the aggregate mean request rate across functions.
	TotalRPS float64
	// Duration is the trace length in virtual time.
	Duration des.Time
	// Loads lists the per-function processes; weights are normalized.
	Loads []FunctionLoad
	// Seed drives the deterministic generator.
	Seed int64
}

// DefaultLoads returns a bursty mix over the given function names:
// every function gets an equal base share and pronounced bursts, the
// configuration §7.2 describes ("Azure traces of bursty functions").
func DefaultLoads(functions []string) []FunctionLoad {
	loads := make([]FunctionLoad, len(functions))
	for i, fn := range functions {
		loads[i] = FunctionLoad{
			Function:    fn,
			Weight:      1,
			BurstFactor: 8,
			MeanBurst:   2 * des.Second,
			MeanCalm:    10 * des.Second,
		}
	}
	return loads
}

// Generate produces the arrival sequence, ordered by time and, on equal
// times, by load order. Each load's run is generated into one presized
// allocation, and merge fills an output sized to the exact total.
func Generate(cfg TraceConfig) []Request {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var total float64
	for _, l := range cfg.Loads {
		total += l.Weight
	}
	runs := make([][]arrival, len(cfg.Loads))
	for i, l := range cfg.Loads {
		// Mean rate r must satisfy: share = weight/total * TotalRPS.
		// With duty cycle d = MeanBurst/(MeanBurst+MeanCalm), mean rate
		// = base*(1-d) + base*BurstFactor*d, so solve for base.
		share := l.Weight / total * cfg.TotalRPS
		d := float64(l.MeanBurst) / float64(l.MeanBurst+l.MeanCalm)
		base := share / ((1 - d) + l.BurstFactor*d)
		runs[i] = generateOne(rng, l, base, cfg.Duration, presize(share, cfg.Duration))
	}
	return merge(cfg.Loads, runs)
}

// arrival is one arrival of a load's run; the load names its function.
type arrival struct {
	at    des.Time
	burst bool
}

// maxPresize caps a run's up-front capacity at 16M arrivals (256 MB);
// a longer run grows by append.
const maxPresize = 1 << 24

// presize is the capacity for a run with mean rate share over dur: the
// expected count plus a quarter as headroom for the run's bursts. A run
// that outgrows it grows by append. A zero, negative, NaN or infinite
// share presizes nothing.
func presize(share float64, dur des.Time) int {
	want := share * dur.Seconds()
	if !(want > 0) || math.IsInf(want, 0) {
		return 0
	}
	return int(min(want*1.25, maxPresize))
}

// merge interleaves the loads' runs, each strictly increasing in time,
// into one trace ordered by time and, on equal times, by load index:
// the order a stable sort of the runs' concatenation gives. Each pick
// scans the run heads; a trace has a handful of loads.
func merge(loads []FunctionLoad, runs [][]arrival) []Request {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	out := make([]Request, 0, n)
	for len(out) < n {
		// k is the lowest-indexed run holding the earliest head.
		k := -1
		for i, r := range runs {
			if len(r) > 0 && (k < 0 || r[0].at < runs[k][0].at) {
				k = i
			}
		}
		a := runs[k][0]
		runs[k] = runs[k][1:]
		out = append(out, Request{At: a.at, Function: loads[k].Function, Burst: a.burst})
	}
	return out
}

// generateOne runs one function's two-state MMPP into a run of capacity
// size; its arrivals are strictly increasing in time.
func generateOne(rng *rand.Rand, l FunctionLoad, baseRPS float64, dur des.Time, size int) []arrival {
	out := make([]arrival, 0, size)
	now := des.Time(0)
	burst := false
	stateEnd := now + expTime(rng, l.MeanCalm)
	for now < dur {
		rate := baseRPS
		if burst {
			rate *= l.BurstFactor
		}
		var next des.Time
		if !(rate > 0) { // zero, or NaN from an all-zero weight mix: no arrivals
			next = dur
		} else {
			next = now + expTime(rng, des.Time(float64(des.Second)/rate))
		}
		if next >= stateEnd {
			// State transition first.
			now = stateEnd
			burst = !burst
			mean := l.MeanCalm
			if burst {
				mean = l.MeanBurst
			}
			stateEnd = now + expTime(rng, mean)
			continue
		}
		now = next
		if now < dur {
			out = append(out, arrival{at: now, burst: burst})
		}
	}
	return out
}

// expTime draws an exponential duration with the given mean.
func expTime(rng *rand.Rand, mean des.Time) des.Time {
	if mean <= 0 {
		return 1
	}
	u := rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := des.Time(-math.Log(u) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Stats summarizes a generated trace.
type Stats struct {
	Requests    int
	PerFunction map[string]int
	MeanRPS     float64
	BurstShare  float64
}

// Summarize computes trace statistics over the given duration.
func Summarize(reqs []Request, dur des.Time) Stats {
	st := Stats{PerFunction: make(map[string]int)}
	bursts := 0
	for _, r := range reqs {
		st.Requests++
		st.PerFunction[r.Function]++
		if r.Burst {
			bursts++
		}
	}
	if dur > 0 {
		st.MeanRPS = float64(st.Requests) / dur.Seconds()
	}
	if st.Requests > 0 {
		st.BurstShare = float64(bursts) / float64(st.Requests)
	}
	return st
}
