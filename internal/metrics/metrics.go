package metrics

import (
	"fmt"
	"math"
	"slices"

	"cxlfork/internal/des"
)

// LatencyRecorder collects latency samples and reports percentiles. A
// recorder built by Union holds no samples of its own and reads its
// parts' instead.
type LatencyRecorder struct {
	samples []des.Time
	sorted  int // samples[:sorted] is in ascending order
	sum     des.Time
	parts   []*LatencyRecorder // a union's parts; nil for a plain recorder
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Union returns a read-only recorder over parts. It stores no samples:
// every statistic is that of all the parts' samples together, including
// samples recorded into a part after the union was built. Percentiles
// select exact order statistics across the parts by binary search on
// the value, O(64 · parts · log n) per query. Record, Grow and Reset on
// a union panic.
func Union(parts ...*LatencyRecorder) *LatencyRecorder {
	return &LatencyRecorder{parts: append(make([]*LatencyRecorder, 0, len(parts)), parts...)}
}

// mutable panics on a union.
func (r *LatencyRecorder) mutable() {
	if r.parts != nil {
		panic("metrics: a union recorder is read-only")
	}
}

// Record adds a sample.
func (r *LatencyRecorder) Record(d des.Time) {
	r.mutable()
	r.samples = append(r.samples, d)
	r.sum += d
}

// Grow makes room for n more samples, so the next n Records do not
// reallocate the buffer.
func (r *LatencyRecorder) Grow(n int) {
	r.mutable()
	r.samples = slices.Grow(r.samples, n)
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int {
	if r.parts == nil {
		return len(r.samples)
	}
	n := 0
	for _, q := range r.parts {
		n += q.Count()
	}
	return n
}

// Sum returns the total of all samples.
func (r *LatencyRecorder) Sum() des.Time {
	if r.parts == nil {
		return r.sum
	}
	var s des.Time
	for _, q := range r.parts {
		s += q.Sum()
	}
	return s
}

// Mean returns the average latency (0 with no samples).
func (r *LatencyRecorder) Mean() des.Time {
	n := r.Count()
	if n == 0 {
		return 0
	}
	return r.Sum() / des.Time(n)
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank on the sorted samples. It returns 0 with no samples.
func (r *LatencyRecorder) Percentile(p float64) des.Time {
	n := r.Count()
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return r.at(0)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return r.at(rank - 1)
}

// Quantile returns the p-th percentile (0 <= p <= 100) with linear
// interpolation between adjacent order statistics — the smoother
// estimator telemetry summaries use, where nearest-rank's stair-steps
// would show up as false level shifts. A single-sample distribution
// returns that sample for every p: the naive interpolation index
// p/100*(n-1) degenerates to position 0 of an unguarded formula and
// historically reported 0 for P50.
func (r *LatencyRecorder) Quantile(p float64) des.Time {
	n := r.Count()
	if n == 0 {
		return 0
	}
	if n == 1 || p <= 0 {
		return r.at(0)
	}
	if p >= 100 {
		return r.at(n - 1)
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return r.at(lo)
	}
	a, b := float64(r.at(lo)), float64(r.at(lo+1))
	return des.Time(math.Round(a + frac*(b-a)))
}

// at returns the k-th smallest sample, 0 <= k < Count(). A union
// searches the value range for the smallest value v with more than k
// samples at or below it, which is always a sample.
func (r *LatencyRecorder) at(k int) des.Time {
	if r.parts == nil {
		r.sort()
		return r.samples[k]
	}
	first := true
	var lo, hi des.Time
	for _, q := range r.parts {
		if n := q.Count(); n > 0 {
			if a, b := q.at(0), q.at(n-1); first {
				lo, hi, first = a, b, false
			} else {
				lo, hi = min(lo, a), max(hi, b)
			}
		}
	}
	for lo < hi {
		mid := lo + des.Time(uint64(hi-lo)/2)
		if r.countLE(mid) > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// countLE returns the number of samples at or below v.
func (r *LatencyRecorder) countLE(v des.Time) int {
	if r.parts != nil {
		n := 0
		for _, q := range r.parts {
			n += q.countLE(v)
		}
		return n
	}
	r.sort()
	lo, hi := 0, len(r.samples)
	for lo < hi {
		mid := int(uint(lo+hi) / 2)
		if r.samples[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Presort sorts the sample buffer ahead of percentile queries, so a
// worker pool can pay the O(n log n) for many recorders in parallel
// before a sequential summary pass reads them. Sorting is the
// recorders' only deferred work; after Presort, Percentile and
// Quantile are read-only until the next Record. A union presorts its
// parts.
func (r *LatencyRecorder) Presort() {
	for _, q := range r.parts {
		q.Presort()
	}
	r.sort()
}

// sort brings the buffer into ascending order. Only the samples
// recorded since the last sort are sorted; they are then merged into
// the sorted prefix from the back. A running percentile read on every
// telemetry tick thus costs O(k log k + n) for k new samples, not a
// full sort of all n.
func (r *LatencyRecorder) sort() {
	n := len(r.samples)
	if r.sorted == n {
		return
	}
	slices.Sort(r.samples[r.sorted:])
	if i := r.sorted - 1; i >= 0 && r.samples[r.sorted] < r.samples[i] {
		newer := slices.Clone(r.samples[r.sorted:])
		for j, k := len(newer)-1, n-1; j >= 0; k-- {
			if i >= 0 && r.samples[i] > newer[j] {
				r.samples[k] = r.samples[i]
				i--
			} else {
				r.samples[k] = newer[j]
				j--
			}
		}
	}
	r.sorted = n
}

// P50 returns the median.
func (r *LatencyRecorder) P50() des.Time { return r.Percentile(50) }

// P99 returns the 99th percentile.
func (r *LatencyRecorder) P99() des.Time { return r.Percentile(99) }

// Max returns the largest sample.
func (r *LatencyRecorder) Max() des.Time { return r.Percentile(100) }

// Reset discards all samples.
func (r *LatencyRecorder) Reset() {
	r.mutable()
	r.samples = r.samples[:0]
	r.sorted = 0
	r.sum = 0
}

// Gauge tracks a time-weighted average of a quantity sampled over
// virtual time (memory utilization, instance counts).
type Gauge struct {
	lastT   des.Time
	lastV   float64
	area    float64
	started bool
	max     float64
}

// Observe records the quantity's value at virtual time t. Values are
// held constant between observations.
func (g *Gauge) Observe(t des.Time, v float64) {
	if g.started && t > g.lastT {
		g.area += g.lastV * float64(t-g.lastT)
	}
	if !g.started || v > g.max {
		g.max = v
	}
	g.lastT, g.lastV, g.started = t, v, true
}

// MeanOver returns the time-weighted mean from time zero (callers start
// observing at t≈0) to end.
func (g *Gauge) MeanOver(end des.Time) float64 {
	if !g.started || end <= 0 {
		return 0
	}
	area := g.area
	if end > g.lastT {
		area += g.lastV * float64(end-g.lastT)
	}
	return area / float64(end)
}

// Max returns the largest observed value.
func (g *Gauge) Max() float64 { return g.max }

// Counter is a monotonically increasing event count. The zero value is
// ready to use.
type Counter struct {
	n int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds d (>= 0) to the counter.
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("metrics: negative counter add")
	}
	c.n += d
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// FaultCounters aggregates the availability-side accounting that the
// fault-injection subsystem and the autoscaler's degradation paths
// maintain, so experiments can report availability alongside latency.
type FaultCounters struct {
	// Injected counts faults fired by a fault-injection plan.
	Injected Counter
	// Retries counts operations re-attempted after a fault (e.g. a
	// restore retried on an alternate node).
	Retries Counter
	// Fallbacks counts degradations to a slower path (e.g. a cold start
	// instead of a fork) after retries were exhausted or impossible.
	Fallbacks Counter
	// RecoveredBytes counts bytes reclaimed by Device.Recover passes
	// garbage-collecting torn (unsealed) checkpoint arenas.
	RecoveredBytes Counter
	// RetryExhausted counts requests whose per-request retry budget ran
	// out — kept distinct from Fallbacks so availability reports can
	// separate "degraded by policy" from "degraded because retrying
	// stopped being worth it".
	RetryExhausted Counter
}

// ReplicaCounters aggregates the replication manager's accounting: how
// many replicas were placed, shed under capacity pressure, rebuilt by
// the anti-entropy repair loop, and how many images were lost outright
// when every replica's device failed.
type ReplicaCounters struct {
	// Placed counts replica arenas created by placement (initial and
	// repair placements both count).
	Placed Counter
	// RepairCopies counts replicas rebuilt by the repair loop.
	RepairCopies Counter
	// RepairedPages counts pages copied by the repair loop.
	RepairedPages Counter
	// Failovers counts restores served by a non-preferred replica after
	// probing one or more dead devices.
	Failovers Counter
	// Shed counts replicas dropped by replica-aware eviction (capacity
	// pressure sheds redundancy before it evicts whole images).
	Shed Counter
	// LostImages counts images that became unrestorable because their
	// last healthy replica's device failed.
	LostImages Counter
}

// DedupCounters aggregates the content-addressed frame dedup cache's
// accounting: how often a checkpoint page write was satisfied by an
// existing identical frame instead of a fresh copy, and how many fabric
// bytes that elided.
type DedupCounters struct {
	// Hits counts page writes satisfied by an existing identical frame.
	Hits Counter
	// Misses counts page writes that allocated and copied a new frame.
	Misses Counter
	// BytesSaved counts fabric write bytes elided by hits.
	BytesSaved Counter
}

// HitRate returns Hits / (Hits + Misses), or 0 with no lookups.
func (d *DedupCounters) HitRate() float64 {
	total := d.Hits.Value() + d.Misses.Value()
	if total == 0 {
		return 0
	}
	return float64(d.Hits.Value()) / float64(total)
}

// CapacityCounters aggregates the CXL capacity manager's accounting:
// watermark-driven checkpoint eviction, the admission ladder's refusals,
// and snapshot-based re-publishes of evicted checkpoints. EvictedBytes
// counts the actual device occupancy deltas (dedup-aware), not declared
// image footprints.
type CapacityCounters struct {
	// ReclaimPasses counts watermark-triggered eviction passes.
	ReclaimPasses Counter
	// Evictions counts checkpoints dropped from the object store by the
	// eviction engine.
	Evictions Counter
	// EvictedBytes counts device bytes those evictions actually freed
	// (occupancy delta; shared dedup frames and images pinned by live
	// clones contribute only what really came back).
	EvictedBytes Counter
	// DeferredBytes counts declared footprint of evicted images whose
	// release was deferred because live clones or in-flight restores
	// still hold references; the device frees it when they exit.
	DeferredBytes Counter
	// AdmitRefused counts checkpoint publications refused because the
	// device could not be brought under its high watermark — the middle
	// rung of the degradation ladder (evict → refuse → cold start).
	AdmitRefused Counter
	// Recheckpoints counts evicted checkpoints re-published from their
	// recorded frame-token snapshots.
	Recheckpoints Counter
}

// Ratio formats a/b as a multiplier string ("2.26x").
func Ratio(a, b des.Time) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}
