package porter

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"cxlfork/internal/des"
	"cxlfork/internal/metrics"
)

// Fingerprint folds every scalar result and the latency distributions
// into one FNV-1a hash: each value as a little-endian 64-bit word, each
// name NUL-terminated. Two replays of the same seeded trace must
// produce equal fingerprints — the golden determinism tests compare
// them across runs and lane counts.
func (r Results) Fingerprint() uint64 {
	var b []byte
	for _, v := range []int64{
		int64(r.Completed), int64(r.WarmStarts), int64(r.ColdForks), int64(r.ScratchCold),
		int64(r.Evictions), int64(r.CkptReclaims), int64(r.WindowCompleted), int64(r.Duration),
		int64(r.PolicyPromotions), r.InjectedFaults, r.Retries, r.Fallbacks, r.RecoveredBytes,
		r.DedupHits, r.DedupMisses, r.DedupBytesSaved, r.ReclaimPasses, r.EvictedCkpts,
		r.EvictedBytes, r.DeferredBytes, r.CkptRefused, r.Recheckpoints, int64(r.FailedRestores),
		r.RetryExhausted, r.Failovers, r.ReplicasPlaced, r.ReplicasShed, r.RepairCopies,
		r.RepairedPages, r.LostImages, r.UnderReplicated, int64(r.RepairConverged),
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = appendRecorder(b, r.Overall)
	b = appendRecorder(b, r.ColdLatency)

	fns := make([]string, 0, len(r.PerFunction))
	for fn := range r.PerFunction {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		b = append(append(b, fn...), 0)
		b = appendRecorder(b, r.PerFunction[fn])
	}

	gauges := make([]string, 0, len(r.MemGauge))
	for name := range r.MemGauge {
		gauges = append(gauges, name)
	}
	sort.Strings(gauges)
	for _, name := range gauges {
		b = append(append(b, name...), 0)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.MemGauge[name].Max()))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.MemGauge[name].MeanOver(r.Duration)))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// appendRecorder appends r's count, mean, P50, P99 and maximum, or one
// zero word for a nil recorder.
func appendRecorder(b []byte, r *metrics.LatencyRecorder) []byte {
	if r == nil {
		return binary.LittleEndian.AppendUint64(b, 0)
	}
	for _, v := range []des.Time{des.Time(r.Count()), r.Mean(), r.P50(), r.P99(), r.Max()} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}
