package azure

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

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

// Generate produces the arrival sequence, sorted by time.
func Generate(cfg TraceConfig) []Request {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var total float64
	for _, l := range cfg.Loads {
		total += l.Weight
	}
	var out []Request
	for _, l := range cfg.Loads {
		// Mean rate r must satisfy: share = weight/total * TotalRPS.
		// With duty cycle d = MeanBurst/(MeanBurst+MeanCalm), mean rate
		// = base*(1-d) + base*BurstFactor*d, so solve for base.
		share := l.Weight / total * cfg.TotalRPS
		d := float64(l.MeanBurst) / float64(l.MeanBurst+l.MeanCalm)
		base := share / ((1 - d) + l.BurstFactor*d)
		out = append(out, generateOne(rng, l, base, cfg.Duration)...)
	}
	slices.SortStableFunc(out, func(a, b Request) int { return cmp.Compare(a.At, b.At) })
	return out
}

// generateOne runs one function's two-state MMPP.
func generateOne(rng *rand.Rand, l FunctionLoad, baseRPS float64, dur des.Time) []Request {
	var out []Request
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
			out = append(out, Request{At: now, Function: l.Function, Burst: burst})
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
