package azure

import (
	"cmp"
	"math/rand"
	"slices"

	"cxlfork/internal/des"
)

// refGenerate is the append-and-stable-sort Generate this package used
// before the presized per-load runs and their merge, kept verbatim
// (renamed) as the reference model for the differential and fuzz
// tests.
func refGenerate(cfg TraceConfig) []Request {
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
		out = append(out, refGenerateOne(rng, l, base, cfg.Duration)...)
	}
	slices.SortStableFunc(out, func(a, b Request) int { return cmp.Compare(a.At, b.At) })
	return out
}

// refGenerateOne runs one function's two-state MMPP.
func refGenerateOne(rng *rand.Rand, l FunctionLoad, baseRPS float64, dur des.Time) []Request {
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
