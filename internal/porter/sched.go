package porter

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"cxlfork/internal/azure"
	"cxlfork/internal/des"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/metrics"
	"cxlfork/internal/params"
	"cxlfork/internal/replica"
	"cxlfork/internal/rfork"
	"cxlfork/internal/trace"
	"cxlfork/internal/xray"
)

// Run replays an arrival trace and returns latency and utilization
// results. Event handlers never advance the clock directly; all costs
// are expressed as scheduled durations, so concurrent requests overlap
// correctly on the engine.
func (p *Porter) Run(trace []azure.Request) Results {
	eng := p.c.Eng
	p.res = Results{
		PerFunction:    make(map[string]*metrics.LatencyRecorder, len(p.fns)),
		MemGauge:       make(map[string]*metrics.Gauge, len(p.nodes)),
		ColdLatency:    metrics.NewLatencyRecorder(),
		RestoreLatency: metrics.NewLatencyRecorder(),
	}
	if p.coldP99 != nil {
		p.coldP99.Reset()
	}
	for _, n := range p.nodes {
		n.gauge = &metrics.Gauge{}
		p.res.MemGauge[n.os.Name] = n.gauge
	}
	base := eng.Now()
	p.base = base
	p.lastDone = base
	p.window = 0
	// Arrivals dispatch in (time, trace index) order, as if each were
	// scheduled with its own At in trace order. AtSorted needs them
	// sorted: a stable sort of a copy keeps the index order among ties.
	byTime := func(a, b azure.Request) int { return cmp.Compare(a.At, b.At) }
	if !slices.IsSortedFunc(trace, byTime) {
		trace = slices.Clone(trace)
		slices.SortStableFunc(trace, byTime)
	}
	// Resolve every arrival's function once, and size each function's
	// recorder for its arrivals: each completes exactly once, so no
	// recorder grows during the replay. Overall is their union, so
	// every latency is stored once.
	ids := make([]int32, len(trace))
	counts := make([]int, len(p.fns))
	for i, r := range trace {
		st := p.byName[r.Function]
		if st == nil {
			panic(fmt.Sprintf("porter: trace names function %q, which Setup did not provision", r.Function))
		}
		ids[i] = int32(st.id)
		counts[st.id]++
	}
	recs := make([]*metrics.LatencyRecorder, len(p.fns))
	for i, st := range p.fns {
		st.rec = metrics.NewLatencyRecorder()
		st.rec.Grow(counts[i])
		recs[i] = st.rec
		p.res.PerFunction[st.spec.Name] = st.rec
	}
	p.res.Overall = metrics.Union(recs...)
	eng.AtSorted(len(trace),
		func(i int) des.Time { return base + trace[i].At },
		func(i int) { p.arrive(p.fns[ids[i]]) })
	var last des.Time
	if n := len(trace); n > 0 {
		last = trace[n-1].At
	}
	p.window = last

	// Periodic A-bit reset on CXL checkpoints to re-estimate hot pages
	// (§4.3, §5). Only checkpoints that expose the interface (CXLfork's)
	// participate.
	type aBitResetter interface{ ClearABits() int }
	var resetTick func()
	resetTick = func() {
		if eng.Now() >= base+last {
			return
		}
		for _, st := range p.fns {
			if ck, ok := st.img.(aBitResetter); ok {
				ck.ClearABits()
			}
		}
		eng.After(params.ABitResetPeriod, resetTick)
	}
	if p.cfg.DynamicTiering {
		eng.After(params.ABitResetPeriod, resetTick)
	}

	// Arm the plan's device-loss schedule: a firing rule permanently
	// fails the pool device and prunes its replicas, opening the repair
	// window.
	p.c.Faults.ArmDeviceLoss(func(dev int) {
		p.c.Pool.Fail(dev)
		if p.rep != nil {
			p.rep.OnDeviceLoss(dev)
		}
	})

	// Anti-entropy repair: every RepairPeriod, copy up to the bandwidth
	// budget of pages toward restoring full replication (DESIGN.md §12).
	if p.rep != nil && p.c.P.RepairPeriod > 0 {
		eng.Every(p.c.P.RepairPeriod, func() bool {
			if eng.Now() >= base+last {
				return false
			}
			p.rep.RepairTick()
			return true
		})
	}

	// Background capacity reclaim: re-check the device watermarks every
	// CXLReclaimPeriod for the duration of the arrival window, so
	// occupancy growth between arrivals (re-checkpoints, dedup decay)
	// is bounded even during arrival lulls.
	if period := p.c.P.CXLReclaimPeriod; period > 0 {
		eng.Every(period, func() bool {
			if eng.Now() >= base+last {
				return false
			}
			p.maybeReclaim()
			return true
		})
	}

	// Telemetry sampling: probe every registered series on the virtual
	// clock for the duration of the arrival window, then evaluate SLO
	// burn rates (DESIGN.md §11). Probes are read-only, so the tick's
	// only effect on the event heap is its own presence — results are
	// identical with sampling on or off.
	if p.telem != nil {
		p.sampleTelemetry(eng.Now())
		if every := p.telem.SampleEvery(); every > 0 {
			eng.Every(every, func() bool {
				if eng.Now() >= base+last {
					return false
				}
				p.sampleTelemetry(eng.Now())
				return true
			})
		}
	}

	p.observeMem()
	eng.Run()
	p.res.Duration = p.lastDone - base
	if p.telem != nil {
		// Final sample so the exports include end-of-run state.
		p.sampleTelemetry(eng.Now())
	}

	// Availability accounting: mirror the cluster plan's fault counters
	// (which cover Setup as well as the trace) into the results.
	fc := &p.c.Faults.Counters
	p.res.InjectedFaults = fc.Injected.Value()
	p.res.Retries = fc.Retries.Value()
	p.res.Fallbacks = fc.Fallbacks.Value()
	p.res.RecoveredBytes = fc.RecoveredBytes.Value()
	p.res.RetryExhausted = fc.RetryExhausted.Value()

	// Replication accounting: mirror the replica manager's counters and
	// the repair loop's convergence into the results.
	if p.rep != nil {
		rc := &p.rep.C
		p.res.ReplicasPlaced = rc.Placed.Value()
		p.res.ReplicasShed = rc.Shed.Value()
		p.res.RepairCopies = rc.RepairCopies.Value()
		p.res.RepairedPages = rc.RepairedPages.Value()
		p.res.LostImages = rc.LostImages.Value()
		p.res.Failovers = rc.Failovers.Value()
		p.res.UnderReplicated = int64(p.rep.UnderReplication())
		if d, ok := p.rep.ConvergenceTime(); ok {
			p.res.RepairConverged = d
			p.res.RepairConvergedOK = true
		}
	}

	// Dedup accounting: mirror every pool device's content-addressed
	// frame cache counters (covering Setup checkpoints, replica
	// placement, and any trace-time re-checkpoints) into the results.
	for i := 0; i < p.c.Pool.N(); i++ {
		dc := &p.c.Pool.Device(i).Dedup
		p.res.DedupHits += dc.Hits.Value()
		p.res.DedupMisses += dc.Misses.Value()
		p.res.DedupBytesSaved += dc.BytesSaved.Value()
	}

	// Capacity accounting: mirror the eviction engine's counters (which
	// cover Setup admission as well as the trace) into the results.
	cc := &p.capc
	p.res.ReclaimPasses = cc.ReclaimPasses.Value()
	p.res.EvictedCkpts = cc.Evictions.Value()
	p.res.EvictedBytes = cc.EvictedBytes.Value()
	p.res.DeferredBytes = cc.DeferredBytes.Value()
	p.res.CkptRefused = cc.AdmitRefused.Value()
	p.res.Recheckpoints = cc.Recheckpoints.Value()

	// Fabric accounting: mirror the topology contention model's
	// counters (all zero on flat or trivial topologies).
	if p.fabNet != nil {
		p.res.FabricTransfers = p.fabNet.Transfers()
		p.res.FabricQueued = p.fabNet.Queued()
		p.res.FabricQueueDelay = p.fabNet.QueueDelay()
		p.res.FabricExtraDelay = p.fabNet.Charged()
	}

	// Observability accounting: surface tracer and telemetry data loss
	// plus SLO activity in the results so run summaries can print them.
	// None of these fields participate in Fingerprint().
	p.res.TraceDropped = p.c.Trace.Dropped()
	p.res.TelemetrySamples = p.telem.Ticks()
	p.res.TelemetryDropped = p.telem.Dropped()
	p.res.SLOAlertsFired = p.slo.Fired()

	// Presort the latency recorders on the worker pool before the
	// caller's summary pass reads percentiles. Each recorder sorts its
	// own buffer, sorting is order-insensitive, and the replay itself
	// is already over — so SimWorkers > 1 cannot change any result,
	// only the wall-clock cost of the sorts (a million-request trace
	// sorts ~1M samples here, in linear time by radix sort). Overall
	// reads the per-function buffers, so sorting those sorts it.
	recs = append(recs, p.res.ColdLatency, p.res.RestoreLatency)
	p.c.Sim.Each(len(recs), func(i int) { recs[i].Presort() })
	return p.res
}

// arrive handles one request arrival.
func (p *Porter) arrive(st *fnState) {
	p.maybeReclaim()
	st.demand++
	req := p.newReq(st)
	if inst := p.findIdle(st); inst != nil {
		p.serve(inst, req)
		return
	}
	if p.trySpawn(st, req) {
		return
	}
	st.queue = append(st.queue, req)
}

// newReq takes a request record from the free list for an arrival of
// st now.
func (p *Porter) newReq(st *fnState) *pending {
	var req *pending
	if n := len(p.freeReqs); n > 0 {
		req = p.freeReqs[n-1]
		p.freeReqs = p.freeReqs[:n-1]
	} else {
		req = &pending{p: p}
	}
	req.fn, req.arrived = st, p.c.Eng.Now()
	return req
}

// freeReq returns a completed request's record to the free list.
func (p *Porter) freeReq(req *pending) {
	*req = pending{p: p}
	p.freeReqs = append(p.freeReqs, req)
}

// findIdle pops the most recently idled instance of st (warmest caches).
func (p *Porter) findIdle(st *fnState) *instance {
	var best *nodeState
	var bestSince des.Time
	for _, n := range p.nodes {
		if list := n.idle[st.id]; len(list) > 0 {
			if since := list[len(list)-1].idleSince; best == nil || since > bestSince {
				best, bestSince = n, since
			}
		}
	}
	if best == nil {
		return nil
	}
	list := best.idle[st.id]
	in := list[len(list)-1]
	list[len(list)-1] = nil
	best.idle[st.id] = list[:len(list)-1]
	p.cancelExpire(in)
	return in
}

func (p *Porter) removeIdle(in *instance) {
	list := in.node.idle[in.fn.id]
	for i, x := range list {
		if x == in {
			in.node.idle[in.fn.id] = append(list[:i], list[i+1:]...)
			break
		}
	}
	p.cancelExpire(in)
}

// cancelExpire disarms an instance's keep-alive timer.
func (p *Porter) cancelExpire(in *instance) {
	if in.hasExpire {
		p.c.Eng.Cancel(in.expire)
		in.hasExpire = false
	}
}

// serve runs one warm invocation of req on inst; req is the CPU job's
// Action.
func (p *Porter) serve(inst *instance, req *pending) {
	inst.state = instBusy
	req.inst = inst
	req.dur = p.jitter(inst.fn.profile(inst.fn.policy).WarmExec)
	p.res.WarmStarts++
	req.submit = p.c.Eng.Now()
	inst.node.cpu.Run(req.dur, req)
}

// Fire completes the warm invocation req was served by.
func (req *pending) Fire(end des.Time) {
	p, inst, dur := req.p, req.inst, req.dur
	span := p.c.Trace.EmitFlow(inst.node.os.Index, trace.CatPorter, "warm-start", end-dur, dur, 0, 0)
	if p.c.XRay.Enabled() {
		execStart := end - dur
		p.xcomps = append(p.xcomps[:0],
			xray.Component{Name: xray.CompPorterQueue, NS: int64(req.submit - req.arrived)},
			xray.Component{Name: xray.CompCPUQueue, NS: int64(execStart - req.submit)},
			xray.Component{Name: xray.CompExec, NS: int64(dur)},
		)
		p.c.XRay.Observe(&xray.Request{
			Class:      "warm-start",
			Name:       inst.fn.spec.Name,
			Span:       int(span),
			Arrived:    int64(req.arrived),
			Latency:    int64(end - req.arrived),
			Device:     -1,
			Components: p.xcomps,
		})
	}
	inst.warmRuns++
	p.complete(inst, req, end)
}

// trySpawn starts a new instance of fn to serve req. It returns false
// when neither memory nor checkpoints allow it right now. Injected
// restore faults degrade gracefully: a crashed target node is excluded
// and the restore retried elsewhere; a transient device-full falls back
// to a scratch cold start.
func (p *Porter) trySpawn(st *fnState, req *pending) bool {
	fn := st.spec.Name
	img := st.img
	haveCkpt := img != nil
	var excluded map[*nodeState]bool // nodes a restore found down

	// t0 is the spawn decision instant; everything before it is porter
	// queueing. probeNS/backoffNS split failoverDelay for attribution.
	t0 := p.c.Eng.Now()
	var probeNS, backoffNS des.Time

	// Per-request retry budget, shared by replica failovers and
	// node-down retries. Exhausting it degrades the request to a
	// scratch cold start and counts retry_exhausted — not a generic
	// fallback.
	attempts := 0
	budget := p.c.P.RestoreRetryBudget
	exhausted := func() bool {
		if budget > 0 && attempts >= budget {
			p.c.Faults.Counters.RetryExhausted.Inc()
			return true
		}
		return false
	}
	var failoverDelay des.Time

	// Replica failover: walk the checkpoint's preference list before
	// placement. A dead device ahead of the first healthy replica costs
	// a probe timeout plus one backed-off retry, charged to the spawn
	// in virtual time. An image with no healthy replica left is lost:
	// drop it (and its snapshot — the data is gone, re-publication
	// cannot resurrect it) and serve the request from scratch.
	if haveCkpt && p.rep != nil {
		if rimg, ok := img.(*replica.Image); ok {
			healthy, deadAhead := p.rep.Probe(rimg.Key())
			switch {
			case healthy == 0:
				p.res.FailedRestores++
				st.evict()
				st.snap = nil
				img, haveCkpt = nil, false
			case deadAhead > 0:
				for i := 0; i < deadAhead && haveCkpt; i++ {
					if exhausted() {
						haveCkpt = false
						break
					}
					bo := p.backoff(attempts)
					failoverDelay += params.ReplicaFailoverTimeout + bo
					probeNS += params.ReplicaFailoverTimeout
					backoffNS += bo
					attempts++
					p.c.Faults.Counters.Retries.Inc()
				}
				if haveCkpt {
					p.rep.C.Failovers.Inc()
				}
			}
		}
	}

	pol := st.policy
	var prof Profile
	var pages int
	var dur des.Time
	var remoteCopy des.Time
	var node *nodeState
	var useGhost bool
	for {
		if haveCkpt {
			prof = st.profile(pol)
			pages = prof.LocalPages
			remoteCopy = p.jitter(prof.RemoteCopy)
			dur = p.jitter(prof.Restore + prof.ColdExec - prof.RemoteCopy)
		} else {
			prof = st.profile(rfork.MigrateOnWrite)
			pages = prof.FootprintPages
			remoteCopy = 0
			dur = p.jitter(prof.ColdInit + prof.ColdInitExec)
		}

		node, useGhost = p.placeOn(st, pages, excluded)
		if node == nil {
			return false
		}
		if !haveCkpt {
			break
		}
		err := p.c.Faults.At(faultinject.StepPorterRestore, node.os.Index)
		if err == nil {
			break
		}
		if errors.Is(err, rfork.ErrNodeDown) {
			// The restore target died: retry on an alternate node after
			// a backed-off delay, if the request's budget allows it.
			if excluded == nil {
				excluded = make(map[*nodeState]bool)
			}
			excluded[node] = true
			p.c.Faults.Counters.Retries.Inc()
			if exhausted() {
				haveCkpt = false
				continue
			}
			bo := p.backoff(attempts)
			failoverDelay += bo
			backoffNS += bo
			attempts++
			continue
		}
		// Transient device-full (or other image trouble): degrade this
		// spawn to a scratch cold start, which needs no device capacity.
		haveCkpt = false
		p.c.Faults.Counters.Fallbacks.Inc()
	}
	// Blame split of the jittered service core: the restore (or
	// cold-init) share versus execution, proportional to the profile's
	// unjittered parts with the integer remainder charged to exec, so
	// the per-request component sum stays exact.
	core := dur
	var restoreSvc des.Time
	restoreComp := xray.CompRestore
	if haveCkpt {
		if denom := prof.Restore + prof.ColdExec - prof.RemoteCopy; denom > 0 {
			restoreSvc = des.Time(int64(core) * int64(prof.Restore) / int64(denom))
		}
	} else {
		restoreComp = xray.CompColdInit
		if denom := prof.ColdInit + prof.ColdInitExec; denom > 0 {
			restoreSvc = des.Time(int64(core) * int64(prof.ColdInit) / int64(denom))
		}
	}
	execSvc := core - restoreSvc
	dur += failoverDelay

	// Fabric charge: price the restore's path latency and per-link
	// stream contention from the nearest healthy replica to the chosen
	// node (DESIGN.md §14). The stream is sized by the image's full
	// footprint — a cold fork's remote traffic is the whole resident
	// image, read over the fabric across restore and first execution —
	// so a restore storm against one device genuinely saturates that
	// device's link. Only non-trivial topologies carry a Net, and only
	// the differential over the flat single-hop baseline is added —
	// the flat model stays byte-identical.
	var fabricExtra des.Time
	devIdx := -1
	if haveCkpt && p.fabNet != nil {
		host := p.c.HostOf(node.os.Index)
		dev := 0
		if p.rep != nil {
			if rimg, ok := img.(*replica.Image); ok {
				if d := p.rep.NearestHealthy(rimg.Key(), host); d >= 0 {
					dev = d
				}
			}
		}
		fabricExtra = p.fabNet.Restore(host, dev, prof.FootprintPages, p.c.Eng.Now())
		dur += fabricExtra
		devIdx = dev
	}
	if haveCkpt && p.res.RestoreLatency != nil {
		p.res.RestoreLatency.Record(prof.Restore + failoverDelay + fabricExtra)
	}

	ownsCtr := false
	var containerNS des.Time
	if useGhost && haveCkpt {
		node.ghosts[st.id]--
		dur += params.GhostContainerTrigger
		containerNS = params.GhostContainerTrigger
		p.replenishGhosts(node, st.id)
	} else {
		// Fresh container: creation cost plus its fixed overhead.
		dur += params.ContainerCreate
		containerNS = params.ContainerCreate
		pages += p.ghostPages
		ownsCtr = true
	}
	node.usedPages += pages
	p.observeMem()

	inst := &instance{p: p, fn: st, node: node, pages: pages, ownsCtr: ownsCtr, state: instSpawning}
	node.live[st.id]++
	req.cold = true
	if haveCkpt {
		p.res.ColdForks++
		// Pin the image for the duration of the restore: eviction may
		// drop it from the record meanwhile, but its frames must outlive
		// every in-flight restore (the eviction-safety invariant).
		img.Retain()
		st.lastRestore = p.c.Eng.Now()
		st.scoreBase = p.agingL
	} else {
		p.res.ScratchCold++
	}
	spanName := "fork-restore"
	if !haveCkpt {
		spanName = "scratch-cold"
	}
	restored := haveCkpt
	// cpuSubmit is when the spawn reached the CPU queue (after any
	// Mitosis uplink copy); uplinkNS is that copy's full span
	// including its stream-slot queueing.
	cpuSubmit := t0
	var uplinkNS des.Time
	finish := func(end des.Time) {
		span := p.c.Trace.EmitFlow(node.os.Index, trace.CatPorter, spanName, end-dur, dur, 0, pages)
		if p.c.XRay.Enabled() {
			execStart := end - dur
			// Restore blame accrued toward a request that degraded to
			// a scratch cold start never reaches the restore-latency
			// recorder — account it as unattributed instead of losing
			// it.
			var unattr des.Time
			if !restored {
				unattr = probeNS + backoffNS
			}
			p.xcomps = append(p.xcomps[:0],
				xray.Component{Name: xray.CompPorterQueue, NS: int64(t0 - req.arrived)},
				xray.Component{Name: xray.CompUplink, NS: int64(uplinkNS)},
				xray.Component{Name: xray.CompCPUQueue, NS: int64(execStart - cpuSubmit)},
				xray.Component{Name: xray.CompProbe, NS: int64(probeNS)},
				xray.Component{Name: xray.CompBackoff, NS: int64(backoffNS)},
				xray.Component{Name: xray.CompFabric, NS: int64(fabricExtra)},
				xray.Component{Name: restoreComp, NS: int64(restoreSvc)},
				xray.Component{Name: xray.CompContainer, NS: int64(containerNS)},
				xray.Component{Name: xray.CompExec, NS: int64(execSvc)},
			)
			p.c.XRay.Observe(&xray.Request{
				Class:          spanName,
				Name:           fn,
				Span:           int(span),
				Arrived:        int64(req.arrived),
				Latency:        int64(end - req.arrived),
				Device:         devIdx,
				Components:     p.xcomps,
				UnattributedNS: int64(unattr),
			})
		}
		if restored {
			img.Release()
		}
		inst.warmRuns++
		p.complete(inst, req, end)
	}
	if remoteCopy > 0 {
		// Pull the pages through the parent node's uplink first, then
		// run the rest of the cold start on a local core.
		upStart := p.c.Eng.Now()
		p.parentUplink.Exec(remoteCopy, func(upEnd des.Time) {
			uplinkNS = upEnd - upStart
			cpuSubmit = upEnd
			node.cpu.Exec(dur, finish)
		})
	} else {
		node.cpu.Exec(dur, finish)
	}
	return true
}

// replenishGhosts provisions a fresh ghost container in the background
// (off the request critical path) to keep the per-function pool at its
// configured size (§5 maintains "a few configured but empty containers
// per function").
func (p *Porter) replenishGhosts(node *nodeState, id int) {
	if node.ghosts[id] >= p.cfg.GhostsPerFunction {
		return
	}
	if node.freePages() < p.ghostPages {
		// The consuming node is full: fall back to the least-loaded
		// surviving node with room, preferring one that already hosts
		// the function (a dedup-warm placement — see placeOn).
		node = p.ghostFallback(id)
		if node == nil {
			return
		}
	}
	p.c.Eng.After(params.ContainerCreate, func() {
		if node.ghosts[id] >= p.cfg.GhostsPerFunction || node.freePages() < p.ghostPages {
			return
		}
		node.ghosts[id]++
		node.usedPages += p.ghostPages
		p.observeMem()
		p.pump()
	})
}

// placeOn picks a node with a free ghost (preferred) and enough memory,
// evicting idle instances if necessary. Crashed nodes and nodes in
// excluded are never candidates. It returns (nil, false) when no node
// can host the instance.
func (p *Porter) placeOn(st *fnState, pages int, excluded map[*nodeState]bool) (*nodeState, bool) {
	// Prefer nodes with a ghost for the function and room, least loaded
	// first. Nothing below re-enters placeOn, so the buffer is free.
	cands := p.cands[:0]
	for _, n := range p.nodes {
		if excluded[n] || p.c.Faults.NodeDown(n.os.Index) {
			continue
		}
		cands = append(cands, n)
	}
	p.cands = cands
	// A stable insertion sort: there are at most a few dozen nodes.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && loadBefore(cands[j], cands[j-1], st.id); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if p.ghostsCompatible() {
		for _, n := range cands {
			if n.ghosts[st.id] > 0 && n.freePages() >= pages {
				return n, true
			}
		}
	}
	for _, n := range cands {
		if n.freePages() >= pages {
			return n, false
		}
	}
	// Evict idle instances to make room (fastest reclaim path; the
	// keep-alive shortening handles the steady state, §5).
	for _, n := range cands {
		if p.evictFor(n, pages) {
			if p.ghostsCompatible() && n.ghosts[st.id] > 0 {
				return n, true
			}
			return n, false
		}
	}
	return nil, false
}

// loadBefore orders placement candidates: less CPU load (busy plus
// queued work) first, and at equal load a node already hosting
// function id — a ghost or a live instance — ahead of one that does
// not. Such a node is a "dedup-warm" placement: its restores and
// re-checkpoints run against device frames the function's pages
// already deduped into, and its page cache is warm.
func loadBefore(a, b *nodeState, id int) bool {
	la := a.cpu.Busy() + a.cpu.QueueLen()
	lb := b.cpu.Busy() + b.cpu.QueueLen()
	if la != lb {
		return la < lb
	}
	return a.hostsFn(id) && !b.hostsFn(id)
}

// hostsFn reports whether the node holds a ghost or a live (busy or
// idle) instance of function id.
func (n *nodeState) hostsFn(id int) bool { return n.ghosts[id] > 0 || n.live[id] > 0 }

// ghostFallback picks the surviving node with room for a ghost container
// that loadBefore ranks first; ties go to the lowest index.
func (p *Porter) ghostFallback(id int) *nodeState {
	var best *nodeState
	for _, n := range p.nodes {
		if p.c.Faults.NodeDown(n.os.Index) || n.freePages() < p.ghostPages {
			continue
		}
		if best == nil || loadBefore(n, best, id) {
			best = n
		}
	}
	return best
}

// evictFor evicts the oldest idle instances on n until pages fit.
func (p *Porter) evictFor(n *nodeState, pages int) bool {
	for n.freePages() < pages {
		victim := p.oldestIdle(n)
		if victim == nil {
			return false
		}
		p.destroy(victim)
		p.res.Evictions++
	}
	return true
}

func (p *Porter) oldestIdle(n *nodeState) *instance {
	var oldest *instance
	for _, list := range n.idle {
		for _, in := range list {
			if oldest == nil || in.idleSince < oldest.idleSince {
				oldest = in
			}
		}
	}
	return oldest
}

// destroy tears an idle instance down, returning its sandbox to the
// ghost pool (the container overhead stays allocated).
func (p *Porter) destroy(in *instance) {
	p.removeIdle(in)
	in.state = instDead
	in.node.live[in.fn.id]--
	release := in.pages
	if p.ghostsCompatible() {
		if in.ownsCtr {
			// The sandbox overhead stays allocated and joins the pool.
			release -= p.ghostPages
		}
		in.node.ghosts[in.fn.id]++
	}
	// CRIU-CXL containers are torn down entirely (in.pages includes the
	// overhead for every CRIU spawn, since ownsCtr is always true).
	in.node.usedPages -= release
	p.observeMem()
}

// complete finishes a request on inst and recycles its record.
func (p *Porter) complete(inst *instance, req *pending, end des.Time) {
	st := inst.fn
	lat := end - req.arrived
	st.rec.Record(lat)
	if req.cold && p.res.ColdLatency != nil {
		p.res.ColdLatency.Record(lat)
		if p.coldP99 != nil {
			p.coldP99.Record(lat)
		}
	}
	p.freeReq(req)
	p.res.Completed++
	if end > p.lastDone {
		p.lastDone = end
	}
	if p.window > 0 && end <= p.base+p.window {
		p.res.WindowCompleted++
	}

	if st.slo > 0 {
		ratio := float64(lat) / float64(st.slo)
		st.lateEWM = 0.7*st.lateEWM + 0.3*ratio
		p.maybePromote(st)
	}
	p.maybeRecheckpoint(inst)

	// Fast path: keep serving this function's queue with the instance.
	if len(st.queue) > 0 {
		p.serve(inst, st.popQueue())
		return
	}

	inst.state = instIdle
	inst.idleSince = end
	inst.node.idle[st.id] = append(inst.node.idle[st.id], inst)
	window := p.c.P.KeepAlive
	if p.memPressure() {
		window = params.KeepAliveShort
	}
	inst.expire = p.c.Eng.Schedule(p.c.Eng.Now()+window, inst)
	inst.hasExpire = true

	p.pump()
}

// maybePromote switches a function from migrate-on-write to hybrid
// tiering when its latency EWMA exceeds the SLO — unless local memory
// utilization is above the HighMem threshold (§5).
func (p *Porter) maybePromote(st *fnState) {
	if !p.cfg.DynamicTiering || p.cfg.StaticPolicy != nil {
		return
	}
	if st.policy != rfork.MigrateOnWrite || st.lateEWM <= 1 {
		return
	}
	if p.memPressure() {
		return
	}
	// Running and idle instances adopt the new policy too, since each
	// runs under its function's: the porter migrates their hot
	// checkpointed pages to local memory over the following invocations
	// (modelled as an immediate profile switch; the transition cost is a
	// few MoA faults per instance).
	st.policy = rfork.HybridTiering
	p.res.PolicyPromotions++
}

// memPressure reports whether mean node utilization exceeds HighMem.
func (p *Porter) memPressure() bool {
	var u float64
	for _, n := range p.nodes {
		u += n.utilization()
	}
	return u/float64(len(p.nodes)) >= params.HighMemFraction
}

// pump retries queued requests, oldest first, after capacity frees up.
func (p *Porter) pump() {
	for {
		var st *fnState
		for _, s := range p.fns {
			if len(s.queue) == 0 {
				continue
			}
			if st == nil || s.queue[0].arrived < st.queue[0].arrived {
				st = s
			}
		}
		if st == nil {
			return
		}
		req := st.queue[0]
		if inst := p.findIdle(st); inst != nil {
			st.popQueue()
			p.serve(inst, req)
			continue
		}
		if p.trySpawn(st, req) {
			st.popQueue()
			continue
		}
		return
	}
}

// popQueue removes and returns the function's oldest queued request.
// Reslicing keeps the pop O(1); the next append that outgrows the
// backing array copies only the requests still queued.
func (st *fnState) popQueue() *pending {
	req := st.queue[0]
	st.queue[0] = nil
	st.queue = st.queue[1:]
	return req
}

// observeMem samples node memory utilization into the gauges.
func (p *Porter) observeMem() {
	for _, n := range p.nodes {
		if n.gauge != nil {
			n.gauge.Observe(p.c.Eng.Now(), n.utilization())
		}
	}
}

// jitter multiplies a duration by U[0.9, 1.1) for realistic spread.
func (p *Porter) jitter(d des.Time) des.Time {
	return des.Time(float64(d) * (0.9 + 0.2*p.rng.Float64()))
}
