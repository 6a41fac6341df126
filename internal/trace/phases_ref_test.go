package trace

import (
	"math/rand"
	"sort"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/metrics"
)

// The phase table the tracer used to keep eagerly, folding each
// accepted span into it inside Emit. It is kept here verbatim as the
// reference for TestPhasesMatchEagerReference.

// PhaseStats aggregates latency distributions keyed by phase name — the
// per-phase histograms the virtual-time tracer folds span durations
// into, so experiments can report a checkpoint's serialize/copy/rebase
// decomposition (paper Fig. 6) instead of only end-to-end totals.
type PhaseStats struct {
	m map[string]*metrics.LatencyRecorder
}

// NewPhaseStats returns an empty phase table.
func NewPhaseStats() *PhaseStats {
	return &PhaseStats{m: make(map[string]*metrics.LatencyRecorder)}
}

// Record adds one sample to the named phase's distribution.
func (s *PhaseStats) Record(phase string, d des.Time) {
	r, ok := s.m[phase]
	if !ok {
		r = metrics.NewLatencyRecorder()
		s.m[phase] = r
	}
	r.Record(d)
}

// Phases returns the recorded phase names, sorted (deterministic
// iteration for reports and golden tests).
func (s *PhaseStats) Phases() []string {
	out := make([]string, 0, len(s.m))
	for name := range s.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Recorder returns the named phase's distribution, or nil if the phase
// was never recorded.
func (s *PhaseStats) Recorder(phase string) *metrics.LatencyRecorder { return s.m[phase] }

// Percentile returns the named phase's p-th percentile with linear
// interpolation (see LatencyRecorder.Quantile); in particular a phase
// holding a single sample returns that sample, not 0. An unrecorded
// phase returns 0.
func (s *PhaseStats) Percentile(phase string, p float64) des.Time {
	r, ok := s.m[phase]
	if !ok {
		return 0
	}
	return r.Quantile(p)
}

// Total returns the summed time across all phases.
func (s *PhaseStats) Total() des.Time {
	var total des.Time
	for _, r := range s.m {
		total += r.Sum()
	}
	return total
}

// TestPhasesMatchEagerReference drives a tracer with seeded random
// Emit, EmitFlow and EmitShards calls — spans past the buffer cap,
// children of dropped spans, and lane spans among them — and feeds the
// reference under the rule the tracer used to follow: a span enters its
// cat/name distribution when the buffer accepts it, unless it is a lane
// span. The buffer accepts a span whose parent is None or a recorded
// span while it holds fewer than its capacity. At several points Phases
// over the recorded stream must match the reference row for row.
func TestPhasesMatchEagerReference(t *testing.T) {
	const capacity = 1000
	cats := []string{CatOp, CatPhase, CatLane, CatFault, CatError, CatPorter, CatCapacity}
	names := []string{"checkpoint", "restore", "copy", "attach", "anon", "warm-start"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New(capacity)
		ref := NewPhaseStats()
		accepted := 0
		accept := func(parent SpanID) bool {
			if parent < 0 || int(parent) > accepted || accepted >= capacity {
				return false
			}
			accepted++
			return true
		}
		var ids []SpanID // every ID an emit returned, Dropped included
		parent := func() SpanID {
			switch {
			case len(ids) == 0 || rng.Intn(3) == 0:
				return None
			case rng.Intn(8) == 0:
				return Dropped // a parent the buffer rejected, before the cap
			}
			return ids[rng.Intn(len(ids))]
		}
		for step := 1; step <= 1200; step++ {
			cat, name := cats[rng.Intn(len(cats))], names[rng.Intn(len(names))]
			node, begin, dur := rng.Intn(3), des.Time(rng.Intn(1e6)), des.Time(rng.Intn(5000))
			switch rng.Intn(5) {
			case 0, 1:
				p := parent()
				ids = append(ids, tr.Emit(p, node, TrackOps, cat, name, begin, dur, 0, 0))
				if accept(p) && cat != CatLane {
					ref.Record(cat+"/"+name, dur)
				}
			case 2:
				ids = append(ids, tr.EmitFlow(node, cat, name, begin, dur, 0, 0))
				if accept(None) && cat != CatLane {
					ref.Record(cat+"/"+name, dur)
				}
			default:
				p := parent()
				shards := des.UniformShards(1+rng.Intn(40), 8, 10, 5)
				obs, spans := tr.CollectShards(shards, ShardNames{Tail: name})
				des.Pipeline(1+rng.Intn(4), 2, 3, shards, obs)
				tr.EmitShards(p, node, begin, spans)
				for range shards {
					accept(p) // lane spans take buffer slots but no row
				}
			}
			if step%100 == 0 {
				comparePhases(t, seed, step, Phases(tr.Events()), ref)
				if tr.Len() != accepted {
					t.Fatalf("seed %d step %d: tracer holds %d spans, rule accepts %d", seed, step, tr.Len(), accepted)
				}
			}
		}
		if tr.Dropped() == 0 || accepted != capacity {
			t.Fatalf("seed %d: %d dropped, %d accepted; the test must reach and cross the cap", seed, tr.Dropped(), accepted)
		}
	}
}

// comparePhases checks every row of the derived table against the
// reference: names, order, count, sum, mean, P99, max, and median.
func comparePhases(t *testing.T, seed int64, step int, got []Phase, ref *PhaseStats) {
	t.Helper()
	names := ref.Phases()
	if len(got) != len(names) {
		t.Fatalf("seed %d step %d: %d phase rows, reference %d", seed, step, len(got), len(names))
	}
	var total des.Time
	for i, ph := range got {
		if ph.Name != names[i] {
			t.Fatalf("seed %d step %d: row %d is %q, reference %q", seed, step, i, ph.Name, names[i])
		}
		r, want := ph.Latency, ref.Recorder(names[i])
		if r.Count() != want.Count() || r.Sum() != want.Sum() || r.Mean() != want.Mean() ||
			r.P99() != want.P99() || r.Max() != want.Max() {
			t.Fatalf("seed %d step %d: %s: count/sum/mean/p99/max %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
				seed, step, ph.Name, r.Count(), r.Sum(), r.Mean(), r.P99(), r.Max(),
				want.Count(), want.Sum(), want.Mean(), want.P99(), want.Max())
		}
		if got, want := r.Quantile(50), ref.Percentile(names[i], 50); got != want {
			t.Fatalf("seed %d step %d: %s: median %d, reference %d", seed, step, ph.Name, got, want)
		}
		total += r.Sum()
	}
	if total != ref.Total() {
		t.Fatalf("seed %d step %d: summed time %d, reference %d", seed, step, total, ref.Total())
	}
}
