package porter

import (
	"errors"
	"fmt"
	"math"

	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/kernel"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
	"cxlfork/internal/replica"
	"cxlfork/internal/rfork"
	"cxlfork/internal/trace"
)

// CXL device-capacity management (§5, §8 discussion).
//
// The shared CXL device holds every function's checkpoint; it is a
// finite, fabric-global resource the porter must manage like node DRAM.
// The capacity manager watches device occupancy against a high/low
// watermark pair: crossing the high watermark (on arrival, on a
// periodic background tick, or when a publication asks for admission)
// triggers an eviction pass that drops checkpoints — ranked by the
// configured policy — until occupancy is back under the low watermark.
//
// Accounting is dedup-aware throughout: an eviction is credited only
// with the device occupancy delta it actually produced (exclusive
// frames plus arena metadata), never with the image's declared
// footprint, because dedup-shared frames survive with their remaining
// owners and an image pinned by live clones or in-flight restores frees
// nothing until the last reference drops.
//
// Under sustained pressure the porter degrades along a ladder, never
// failing a live clone: (1) evict per policy; (2) refuse new
// checkpoint publications that cannot be admitted under the high
// watermark (AdmitRefused); (3) functions without a published checkpoint
// fall back to scratch cold starts, reusing the fault-tolerance
// degradation path. Evicted CXLfork checkpoints are re-published from
// recorded frame-token snapshots once the function has paid
// CheckpointAfter cold starts and admission allows it.

// EvictPolicy selects how the capacity manager ranks eviction victims.
type EvictPolicy int

// Eviction policies, selected by params.EvictPolicy.
const (
	// EvictCostBenefit evicts the checkpoint with the least expected
	// restore latency saved per resident byte: cold-start penalty times
	// observed restore frequency, divided by reclaimable bytes.
	EvictCostBenefit EvictPolicy = iota
	// EvictLRU evicts the checkpoint least recently restored (virtual
	// time of last restore; never-restored checkpoints go first).
	EvictLRU
	// EvictLargest evicts the checkpoint with the most reclaimable
	// bytes first (the pre-capacity-manager behaviour, kept as a
	// baseline policy).
	EvictLargest
)

var evictPolicyNames = [...]string{"costbenefit", "lru", "largest"}

func (p EvictPolicy) String() string { return evictPolicyNames[p] }

// ParseEvictPolicy maps a params.EvictPolicy string to a policy. The
// empty string selects the cost-benefit default.
func ParseEvictPolicy(s string) (EvictPolicy, error) {
	switch s {
	case "", "costbenefit":
		return EvictCostBenefit, nil
	case "lru":
		return EvictLRU, nil
	case "largest":
		return EvictLargest, nil
	}
	return 0, fmt.Errorf("porter: unknown eviction policy %q", s)
}

// evictScore ranks st's published checkpoint as an eviction candidate:
// the lowest score is evicted first. All inputs are deterministic
// simulation state; ties fall to the first function name.
func (p *Porter) evictScore(st *fnState) float64 {
	switch p.policy {
	case EvictLRU:
		return float64(st.lastRestore)
	case EvictLargest:
		return -float64(reclaimEstimate(st.img))
	default: // EvictCostBenefit
		return st.scoreBase + p.costBenefit(st, reclaimEstimate(st.img))
	}
}

// costBenefit is the cost-benefit valuation shared by evictScore and
// admitScore: expected restore latency saved per resident byte, scaled
// by popularity — whole-run request demand, since restores only accrue
// while resident and an evicted checkpoint could never score its way
// back in. Callers add a GDSF aging base (the function's scoreBase, or
// the current aging clock for a newcomer) so that scores are comparable
// across time.
func (p *Porter) costBenefit(st *fnState, bytes int64) float64 {
	prof := st.profile(st.policy)
	saved := (prof.ColdInit + prof.ColdInitExec) - (prof.Restore + prof.ColdExec)
	if saved < 0 {
		saved = 0
	}
	if bytes < 1 {
		// A pinned image frees nothing now: treat it as maximally
		// expensive to lose so it is evicted last.
		bytes = 1
	}
	return float64(saved) * float64(st.demand+1) / float64(bytes)
}

// admitScore is the policy's valuation of a checkpoint about to be
// (re-)published — evictScore's counterpart for an image not published
// yet, scored on its declared need. Admission uses it as the eviction
// floor: making room must not cost checkpoints the policy values more
// than the newcomer.
func (p *Porter) admitScore(st *fnState, need int64) float64 {
	switch p.policy {
	case EvictLRU:
		// A fresh publication is by definition the most recently used.
		return float64(p.c.Eng.Now())
	case EvictLargest:
		return -float64(need)
	default: // EvictCostBenefit
		// A newcomer scores from the current aging clock: a function
		// asking for room now is at least as recent as anything evicted
		// so far, so a currently-bursting function can win admission
		// even when its long-run value is modest.
		return p.agingL + p.costBenefit(st, need)
	}
}

// maybeReclaim runs an eviction pass when any healthy device's
// occupancy is at or above the high watermark, driving the pool toward
// the low watermark. It is called on every arrival and from the
// background reclaim tick. With replication active, surplus replicas
// are shed first (DESIGN.md §12): dropping a redundant copy costs only
// durability the repair loop can win back, while evicting a whole
// image costs cold starts.
func (p *Porter) maybeReclaim() {
	pool := p.c.Pool
	if pool.MaxUtilization() < p.c.P.CXLHighWatermark {
		return
	}
	p.shedForPressure()
	if pool.MaxUtilization() < p.c.P.CXLHighWatermark {
		return
	}
	p.reclaim(pool.UsedBytes() - int64(float64(pool.CapacityBytes())*p.c.P.CXLLowWatermark))
}

// shedForPressure trims replication before whole-image eviction: on
// every healthy device at or above the high watermark it repeatedly
// sheds the replica of the lowest-valued image that still has more
// than one healthy copy, until the device is back under the watermark
// or nothing on it may legally be shed. The last healthy copy of an
// image is never touched — that is eviction's job, which drops the
// whole image from its record. Returns the bytes freed.
func (p *Porter) shedForPressure() int64 {
	if p.rep == nil {
		return 0
	}
	pool := p.c.Pool
	now := p.c.Eng.Now()
	var freed int64
	for d := 0; d < pool.N(); d++ {
		if pool.Failed(d) {
			continue
		}
		dev := pool.Device(d)
		for dev.Utilization() >= p.c.P.CXLHighWatermark {
			var victim *fnState
			var victimImg *replica.Image
			var bestScore float64
			for _, st := range p.sorted {
				rimg, ok := st.img.(*replica.Image)
				if !ok || !p.rep.SheddableOn(rimg.Key(), d) {
					continue
				}
				s := p.evictScore(st)
				if victim == nil || s < bestScore {
					victim, victimImg, bestScore = st, rimg, s
				}
			}
			if victim == nil {
				break
			}
			before := dev.UsedBytes()
			p.rep.ShedOn(victimImg.Key(), d)
			delta := before - dev.UsedBytes()
			freed += delta
			p.c.Trace.EmitFlow(0, trace.CatCapacity, "shed:"+victim.spec.Name, now, 0, delta, 0)
		}
	}
	return freed
}

// reclaim evicts checkpoints in policy order until the device has freed
// target bytes or no checkpoint is left, returning the bytes actually
// freed (the device occupancy delta — dedup-shared frames and pinned
// images contribute only what really came back). Eviction drops only
// the porter's reference: an image held by live clones or in-flight
// restores stays resident (its declared bytes are counted as deferred)
// and is freed by the last release.
func (p *Porter) reclaim(target int64) int64 {
	return p.reclaimBelow(target, math.Inf(1))
}

// reclaimBelow is reclaim with a score floor: the pass never evicts a
// victim the policy scores at or above floor. Watermark passes use an
// infinite floor (occupancy must come down); admission passes use the
// incoming checkpoint's own score, so making room for a low-value
// publication can never displace a higher-value resident — the
// admission is refused instead.
func (p *Porter) reclaimBelow(target int64, floor float64) int64 {
	pool := p.c.Pool
	now := p.c.Eng.Now()
	start := pool.UsedBytes()
	p.capc.ReclaimPasses.Inc()
	for start-pool.UsedBytes() < target {
		var victim *fnState
		var bestScore float64
		for _, st := range p.sorted {
			if st.img == nil {
				continue
			}
			s := p.evictScore(st)
			if victim == nil || s < bestScore {
				victim, bestScore = st, s
			}
		}
		if victim == nil || bestScore >= floor {
			break
		}
		// GDSF aging: the clock follows the best score ever evicted, so
		// checkpoints touched afterwards outrank those idle since before.
		if p.policy == EvictCostBenefit && bestScore > p.agingL {
			p.agingL = bestScore
		}
		refsBefore := victim.img.Refs()
		declared := victim.img.CXLBytes()
		pages := victim.img.Pages()
		before := pool.UsedBytes()
		victim.evict()
		delta := before - pool.UsedBytes()
		p.capc.Evictions.Inc()
		p.capc.EvictedBytes.Add(delta)
		if refsBefore > 1 {
			p.capc.DeferredBytes.Add(declared)
		}
		p.res.CkptReclaims += int(delta / int64(p.c.P.PageSize))
		p.c.Trace.EmitFlow(0, trace.CatCapacity, "evict:"+victim.spec.Name, now, 0, delta, pages)
	}
	freed := start - pool.UsedBytes()
	p.c.Trace.EmitFlow(0, trace.CatCapacity, "reclaim", now, 0, freed, 0)
	return freed
}

// reclaimToLow forces an eviction pass down to the low watermark even
// when occupancy is below the high one — the retry path when a
// checkpoint publication hit a full device (frame-pool exhaustion can
// precede the watermark on metadata-heavy devices).
func (p *Porter) reclaimToLow() int64 {
	pool := p.c.Pool
	target := pool.UsedBytes() - int64(float64(pool.CapacityBytes())*p.c.P.CXLLowWatermark)
	if target < 1 {
		target = 1
	}
	return p.reclaim(target)
}

// admitCheckpoint decides whether st's publication of roughly need
// bytes may proceed: it must fit under the high watermark, after an
// eviction pass if necessary. The pass evicts just enough to fit —
// watermark hysteresis belongs to the background tick — and is floored
// at the newcomer's own score, so admission never evicts checkpoints
// the policy values more than the one asking for room. A refusal is
// the degradation ladder's middle rung (counted in AdmitRefused); the
// function keeps running on scratch cold starts and asks again later.
func (p *Porter) admitCheckpoint(st *fnState, need int64) bool {
	pool := p.c.Pool
	if p.rep != nil {
		// A replicated publication costs up to one copy per reachable
		// replica (dedup may make some free, but admission budgets for
		// the declared footprint).
		need *= int64(p.rep.EffectiveFactor())
		// Repair-first invariant (DESIGN.md §12): while surviving images
		// are under-replicated and the pool is at the high watermark,
		// the remaining headroom belongs to the repair loop, not to new
		// publications.
		if p.rep.UnderReplication() > 0 && pool.MaxUtilization() >= p.c.P.CXLHighWatermark {
			p.capc.AdmitRefused.Inc()
			return false
		}
	}
	wm := p.c.P.CXLHighWatermark
	if p.sloTighten && p.slo.Firing(SLOOccupancyObjective) {
		// A firing occupancy alert tightens admission to the low
		// watermark: while the burn rate says the device is trending
		// into trouble, new publications must leave reclaim headroom
		// (DESIGN.md §11).
		wm = p.c.P.CXLLowWatermark
	}
	high := int64(float64(pool.CapacityBytes()) * wm)
	if pool.UsedBytes()+need <= high {
		return true
	}
	p.reclaimBelow(pool.UsedBytes()+need-high, p.admitScore(st, need))
	if pool.UsedBytes()+need <= high {
		return true
	}
	p.capc.AdmitRefused.Inc()
	return false
}

// dedupAware is implemented by images whose device accounting
// distinguishes exclusive from dedup-shared frames (core.Checkpoint,
// replica.Image and the capacity manager's replay images).
type dedupAware interface {
	ReclaimableBytes() int64
}

// reclaimEstimate predicts the device occupancy delta releasing the
// porter's reference on img would produce right now. An image pinned by
// live clones or in-flight restores (extra references) frees nothing
// yet; a dedup-aware image frees only metadata plus its exclusive
// frames; other mechanisms free their declared footprint.
func reclaimEstimate(img rfork.Image) int64 {
	if img.Refs() > 1 {
		return 0
	}
	if r, ok := img.(dedupAware); ok {
		return r.ReclaimableBytes()
	}
	return img.CXLBytes()
}

// setupReclaimRetries bounds how many evict-and-retry rounds a Setup
// checkpoint attempts on a full device before degrading to scratch
// cold starts.
const setupReclaimRetries = 2

// deviceFull reports whether err is a device-capacity failure (metadata
// charge rejection or frame-pool exhaustion).
func deviceFull(err error) bool {
	return errors.Is(err, cxl.ErrDeviceFull) || errors.Is(err, memsim.ErrOutOfMemory)
}

// checkpointWithReclaim is Mechanism.Checkpoint with the capacity
// manager in the loop: a device-full failure triggers a policy-ordered
// eviction pass and a retry, up to setupReclaimRetries times or until
// a pass frees nothing.
func (p *Porter) checkpointWithReclaim(task *kernel.Task, id string) (rfork.Image, error) {
	img, err := p.cfg.Mechanism.Checkpoint(task, id)
	for i := 0; i < setupReclaimRetries && deviceFull(err); i++ {
		if p.reclaimToLow() == 0 {
			break
		}
		img, err = p.cfg.Mechanism.Checkpoint(task, id)
	}
	return img, err
}

// ckptSnapshot is the capacity manager's record of a published CXLfork
// checkpoint: the content tokens of its device frames (in arena order)
// and its metadata footprint. It is what survives an eviction, letting
// the checkpoint be re-published through the dedup index later without
// a live parent address space.
type ckptSnapshot struct {
	tokens    []uint64
	metaBytes int64
	gen       int // re-publish generation, for unique arena names
}

// frameTokener is implemented by images that can be snapshotted for
// re-publication (core.Checkpoint). Mechanisms that cannot (CRIU-CXL's
// file images, Mitosis' parent-resident trees) simply degrade to
// scratch cold starts for good once evicted.
type frameTokener interface {
	FrameTokens() []uint64
	MetaBytes() int64
}

// maybeRecheckpoint is called on every request completion: once a
// function whose checkpoint was evicted has completed CheckpointAfter
// further invocations (§5 checkpoints after the 16th invocation) and
// admission allows it, the checkpoint is rebuilt from its snapshot on
// the completing instance's node. The rebuild cost occupies one of
// that node's cores off the request critical path.
func (p *Porter) maybeRecheckpoint(inst *instance) {
	st := inst.fn
	snap := st.snap
	if snap == nil || st.reckpting {
		return
	}
	if st.img != nil {
		st.coldRuns = 0
		return
	}
	st.coldRuns++
	if st.coldRuns < p.c.P.CheckpointAfter {
		return
	}
	st.coldRuns = 0
	need := int64(len(snap.tokens))*int64(p.c.P.PageSize) + snap.metaBytes
	if !p.admitCheckpoint(st, need) {
		return
	}
	st.reckpting = true
	node := inst.node
	cost := params.StructCopy + des.Time(len(snap.tokens))*p.c.P.CXLWritePage
	node.cpu.Exec(cost, func(end des.Time) {
		st.reckpting = false
		if p.c.Faults.NodeDown(node.os.Index) {
			return
		}
		p.republish(st, node, end-cost, cost)
	})
}

// republish rebuilds st's evicted checkpoint from its snapshot: every
// recorded token is allocated through the dedup index (re-deduping
// against surviving twins), tracked in a fresh arena with the original
// metadata charge, sealed, and published in st's record. A device that
// fills mid-rebuild rolls the staged arena back and counts a refusal.
func (p *Porter) republish(st *fnState, node *nodeState, begin, dur des.Time) {
	fn := st.spec.Name
	snap := st.snap
	snap.gen++
	id := fmt.Sprintf("cid-%s-%s#r%d", tenant, fn, snap.gen)
	var img rfork.Image
	if p.rep != nil {
		// Replication active: rebuild through the placement manager so
		// the re-published checkpoint gets the same preference list and
		// repair coverage as the original (dedup-affine to device 0,
		// where the rebuilding node writes). A still-pinned predecessor
		// (clones draining after eviction) or a full pool refuses the
		// round; the function retries after CheckpointAfter more runs.
		rimg, err := p.rep.Place(p.replicaKey(fn), id, p.cfg.Mechanism.Name(), snap.tokens, snap.metaBytes, 0)
		if err != nil {
			p.capc.AdmitRefused.Inc()
			return
		}
		img = rimg
	} else {
		arena, err := p.c.Dev.BuildArena(id, snap.tokens, snap.metaBytes)
		if err != nil {
			p.capc.AdmitRefused.Inc()
			return
		}
		img = &replayImage{
			id:    id,
			mech:  p.cfg.Mechanism.Name(),
			arena: arena,
			pages: len(snap.tokens),
			refs:  rfork.NewRefCount(),
		}
	}
	p.publish(st, img)
	st.scoreBase = p.agingL
	p.capc.Recheckpoints.Inc()
	p.c.Trace.EmitFlow(node.os.Index, trace.CatCapacity, "recheckpoint", begin, dur, img.CXLBytes(), img.Pages())
}

// replayImage is a checkpoint re-published from a ckptSnapshot. It is
// restore-equivalent to the original (the queue model restores from
// profiles, and the frames carry the same content tokens) and carries
// the same dedup-aware accounting, but drops the page-table tree —
// §5's porter re-checkpoints from a warmed instance, and the snapshot
// keeps only what capacity accounting and future restores need.
type replayImage struct {
	id    string
	mech  string
	arena *cxl.Arena
	pages int
	refs  rfork.RefCount
}

var _ rfork.Image = (*replayImage)(nil)

// ID returns the re-published checkpoint's CID.
func (r *replayImage) ID() string { return r.id }

// Mechanism names the mechanism whose checkpoint was re-published.
func (r *replayImage) Mechanism() string { return r.mech }

// CXLBytes is the image's declared device footprint (data pages plus
// arena metadata), ignoring dedup sharing.
func (r *replayImage) CXLBytes() int64 {
	return r.arena.FrameBytes() + r.arena.Bytes()
}

// LocalBytes is zero: replay images pin no parent-node memory.
func (r *replayImage) LocalBytes() int64 { return 0 }

// Pages is the number of checkpointed data pages.
func (r *replayImage) Pages() int { return r.pages }

// Retain adds a reference.
func (r *replayImage) Retain() { r.refs.Retain() }

// Release drops a reference, releasing the arena at zero.
func (r *replayImage) Release() {
	if !r.refs.Release() {
		return
	}
	r.arena.Release()
}

// Refs returns the current reference count.
func (r *replayImage) Refs() int { return r.refs.Count() }

// ReclaimableBytes is the device occupancy delta releasing the image
// would produce: arena metadata plus frames no other arena shares.
func (r *replayImage) ReclaimableBytes() int64 { return r.arena.ExclusiveBytes() }
