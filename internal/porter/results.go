package porter

import (
	"math"
	"sort"

	"cxlfork/internal/metrics"
)

// Fingerprint folds every scalar result and the latency distributions
// into one FNV-1a hash. Two replays of the same seeded trace must
// produce equal fingerprints — the golden determinism tests compare
// them across runs and lane counts.
func (r Results) Fingerprint() uint64 {
	h := newFingerprint()
	h.word(uint64(r.Completed))
	h.word(uint64(r.WarmStarts))
	h.word(uint64(r.ColdForks))
	h.word(uint64(r.ScratchCold))
	h.word(uint64(r.Evictions))
	h.word(uint64(r.CkptReclaims))
	h.word(uint64(r.WindowCompleted))
	h.word(uint64(r.Duration))
	h.word(uint64(r.PolicyPromotions))
	h.word(uint64(r.InjectedFaults))
	h.word(uint64(r.Retries))
	h.word(uint64(r.Fallbacks))
	h.word(uint64(r.RecoveredBytes))
	h.word(uint64(r.DedupHits))
	h.word(uint64(r.DedupMisses))
	h.word(uint64(r.DedupBytesSaved))
	h.word(uint64(r.ReclaimPasses))
	h.word(uint64(r.EvictedCkpts))
	h.word(uint64(r.EvictedBytes))
	h.word(uint64(r.DeferredBytes))
	h.word(uint64(r.CkptRefused))
	h.word(uint64(r.Recheckpoints))
	h.word(uint64(r.FailedRestores))
	h.word(uint64(r.RetryExhausted))
	h.word(uint64(r.Failovers))
	h.word(uint64(r.ReplicasPlaced))
	h.word(uint64(r.ReplicasShed))
	h.word(uint64(r.RepairCopies))
	h.word(uint64(r.RepairedPages))
	h.word(uint64(r.LostImages))
	h.word(uint64(r.UnderReplicated))
	h.word(uint64(r.RepairConverged))
	h.recorder(r.Overall)
	h.recorder(r.ColdLatency)

	fns := make([]string, 0, len(r.PerFunction))
	for fn := range r.PerFunction {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		h.str(fn)
		h.recorder(r.PerFunction[fn])
	}

	gauges := make([]string, 0, len(r.MemGauge))
	for name := range r.MemGauge {
		gauges = append(gauges, name)
	}
	sort.Strings(gauges)
	for _, name := range gauges {
		h.str(name)
		h.word(math.Float64bits(r.MemGauge[name].Max()))
		h.word(math.Float64bits(r.MemGauge[name].MeanOver(r.Duration)))
	}
	return h.sum
}

// fingerprint is a tiny incremental FNV-1a accumulator.
type fingerprint struct{ sum uint64 }

func newFingerprint() *fingerprint {
	return &fingerprint{sum: 14695981039346656037}
}

func (f *fingerprint) byte(b byte) {
	f.sum ^= uint64(b)
	f.sum *= 1099511628211
}

func (f *fingerprint) word(v uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v >> (8 * i)))
	}
}

func (f *fingerprint) str(s string) {
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
	f.byte(0)
}

func (f *fingerprint) recorder(r *metrics.LatencyRecorder) {
	if r == nil {
		f.word(0)
		return
	}
	f.word(uint64(r.Count()))
	f.word(uint64(r.Mean()))
	f.word(uint64(r.P50()))
	f.word(uint64(r.P99()))
	f.word(uint64(r.Max()))
}
