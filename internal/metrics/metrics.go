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
	sorted  int // samples is in ascending order when sorted == len(samples)
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
	return r.at(nearestRank(p, n) - 1)
}

// nearestRank returns the 1-based rank of the p-th percentile among
// n > 0 sorted samples: ceil(p/100·n), clamped to [1, n].
func nearestRank(p float64, n int) int {
	if p <= 0 {
		return 1
	}
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// Quantile returns the p-th percentile (0 <= p <= 100) with linear
// interpolation between adjacent order statistics. Every other
// percentile the simulator reports is Percentile's nearest rank; the
// one caller is the Cold P99 column of cxlsim -exp slo. A
// single-sample distribution returns that sample for every p: the
// naive interpolation index p/100*(n-1) degenerates to position 0 of
// an unguarded formula and historically reported 0 for P50.
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
// worker pool can pay for sorting many recorders in parallel before a
// sequential summary pass reads them. Sorting is the
// recorders' only deferred work; after Presort, Percentile and
// Quantile are read-only until the next Record. A union presorts its
// parts.
func (r *LatencyRecorder) Presort() {
	for _, q := range r.parts {
		q.Presort()
	}
	r.sort()
}

// sort brings the buffer into ascending order, unless no sample has
// arrived since it last did. Every reader runs after its recorder's
// samples are in, so one full sort serves them all; a percentile read
// between samples, as on every telemetry tick, wants
// RunningPercentile. A large buffer sorts in linear time (sortTimes).
func (r *LatencyRecorder) sort() {
	if r.sorted != len(r.samples) {
		sortTimes(r.samples)
		r.sorted = len(r.samples)
	}
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

// RunningPercentile tracks one nearest-rank percentile of a growing
// sample stream exactly, at O(log n) per sample and O(1) per read: a
// max-heap holds the rank smallest samples and a min-heap the rest, so
// the percentile is the max-heap's top. Value always equals
// LatencyRecorder.Percentile(p) over the same samples; it suits a
// percentile read far more often than a recorder could re-sort.
type RunningPercentile struct {
	p      float64
	lo, hi timeHeap
}

// NewRunningPercentile returns an empty tracker of the p-th percentile.
func NewRunningPercentile(p float64) *RunningPercentile {
	return &RunningPercentile{p: p, lo: timeHeap{max: true}}
}

// Record adds a sample.
func (r *RunningPercentile) Record(d des.Time) {
	if len(r.lo.s) > 0 && d <= r.lo.s[0] {
		r.lo.push(d)
	} else {
		r.hi.push(d)
	}
	rank := nearestRank(r.p, r.Count())
	for len(r.lo.s) > rank {
		r.hi.push(r.lo.pop())
	}
	for len(r.lo.s) < rank {
		r.lo.push(r.hi.pop())
	}
}

// Count returns the number of samples.
func (r *RunningPercentile) Count() int { return len(r.lo.s) + len(r.hi.s) }

// Value returns the percentile of the samples so far (0 with none).
func (r *RunningPercentile) Value() des.Time {
	if len(r.lo.s) == 0 {
		return 0
	}
	return r.lo.s[0]
}

// Reset discards all samples, keeping the heaps' capacity.
func (r *RunningPercentile) Reset() {
	r.lo.s, r.hi.s = r.lo.s[:0], r.hi.s[:0]
}

// timeHeap is a binary heap of samples: a max-heap when max is set, a
// min-heap otherwise.
type timeHeap struct {
	s   []des.Time
	max bool
}

// before reports whether a belongs above b.
func (h *timeHeap) before(a, b des.Time) bool {
	if h.max {
		return a > b
	}
	return a < b
}

func (h *timeHeap) push(v des.Time) {
	h.s = append(h.s, v)
	for i := len(h.s) - 1; i > 0; {
		up := (i - 1) / 2
		if !h.before(h.s[i], h.s[up]) {
			break
		}
		h.s[i], h.s[up] = h.s[up], h.s[i]
		i = up
	}
}

func (h *timeHeap) pop() des.Time {
	top, n := h.s[0], len(h.s)-1
	h.s[0] = h.s[n]
	h.s = h.s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.before(h.s[c+1], h.s[c]) {
			c++
		}
		if !h.before(h.s[c], h.s[i]) {
			break
		}
		h.s[i], h.s[c] = h.s[c], h.s[i]
		i = c
	}
	return top
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
