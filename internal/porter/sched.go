package porter

import (
	"errors"
	"sort"

	"cxlfork/internal/azure"
	"cxlfork/internal/des"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/metrics"
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
		Overall:        metrics.NewLatencyRecorder(),
		PerFunction:    make(map[string]*metrics.LatencyRecorder),
		MemGauge:       make(map[string]*metrics.Gauge),
		ColdLatency:    metrics.NewLatencyRecorder(),
		RestoreLatency: metrics.NewLatencyRecorder(),
	}
	for fn := range p.fns {
		p.res.PerFunction[fn] = metrics.NewLatencyRecorder()
	}
	for _, n := range p.nodes {
		p.res.MemGauge[n.os.Name] = &metrics.Gauge{}
	}
	base := eng.Now()
	p.base = base
	p.lastDone = base
	p.window = 0
	var last des.Time
	for _, r := range trace {
		r := r
		eng.At(base+r.At, func() { p.arrive(r.Function) })
		if r.At > last {
			last = r.At
		}
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
			if img, ok := p.store.Get(p.cfg.User, st.spec.Name); ok {
				if ck, ok := img.(aBitResetter); ok {
					ck.ClearABits()
				}
			}
		}
		eng.After(p.c.P.ABitResetPeriod, resetTick)
	}
	if p.cfg.DynamicTiering {
		eng.After(p.c.P.ABitResetPeriod, resetTick)
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
	// only the wall-clock cost of the O(n log n) at scale (a
	// million-request trace sorts ~1M samples here).
	recs := []*metrics.LatencyRecorder{p.res.Overall, p.res.ColdLatency, p.res.RestoreLatency}
	for _, r := range p.res.PerFunction {
		recs = append(recs, r)
	}
	p.c.Sim.Each(len(recs), func(i int) { recs[i].Presort() })
	return p.res
}

// arrive handles one request arrival.
func (p *Porter) arrive(fn string) {
	p.maybeReclaim()
	if st := p.fns[fn]; st != nil {
		st.demand++
	}
	req := &pending{fn: fn, arrived: p.c.Eng.Now()}
	if inst := p.findIdle(fn); inst != nil {
		p.serve(inst, req)
		return
	}
	if p.trySpawn(fn, req) {
		return
	}
	p.fns[fn].queue = append(p.fns[fn].queue, req)
}

// findIdle pops the most recently idled instance of fn (warmest caches).
func (p *Porter) findIdle(fn string) *instance {
	var best *instance
	for _, n := range p.nodes {
		list := n.idle[fn]
		if len(list) == 0 {
			continue
		}
		cand := list[len(list)-1]
		if best == nil || cand.idleSince > best.idleSince {
			best = cand
		}
	}
	if best == nil {
		return nil
	}
	p.removeIdle(best)
	return best
}

func (p *Porter) removeIdle(in *instance) {
	list := in.node.idle[in.fn]
	for i, x := range list {
		if x == in {
			in.node.idle[in.fn] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if in.hasExpire {
		p.c.Eng.Cancel(in.expire)
		in.hasExpire = false
	}
}

// serve runs one warm invocation of req on inst.
func (p *Porter) serve(inst *instance, req *pending) {
	inst.state = instBusy
	prof := p.profile(inst.fn, inst.policy)
	dur := p.jitter(prof.WarmExec)
	p.res.WarmStarts++
	submit := p.c.Eng.Now()
	inst.node.cpu.Exec(dur, func(end des.Time) {
		span := p.c.Trace.EmitFlow(inst.node.os.Index, trace.CatPorter, "warm-start", end-dur, dur, 0, 0)
		if p.c.XRay.Enabled() {
			execStart := end - dur
			p.c.XRay.Observe(xray.Request{
				Class:   "warm-start",
				Name:    inst.fn,
				Span:    int(span),
				Arrived: int64(req.arrived),
				Latency: int64(end - req.arrived),
				Device:  -1,
				Components: []xray.Component{
					{Name: xray.CompPorterQueue, NS: int64(submit - req.arrived)},
					{Name: xray.CompCPUQueue, NS: int64(execStart - submit)},
					{Name: xray.CompExec, NS: int64(dur)},
				},
			})
		}
		inst.warmRuns++
		p.complete(inst, req, end)
	})
}

// trySpawn starts a new instance of fn to serve req. It returns false
// when neither memory nor checkpoints allow it right now. Injected
// restore faults degrade gracefully: a crashed target node is excluded
// and the restore retried elsewhere; a transient device-full falls back
// to a scratch cold start.
func (p *Porter) trySpawn(fn string, req *pending) bool {
	st := p.fns[fn]
	img, haveCkpt := p.store.Get(p.cfg.User, fn)
	excluded := make(map[*nodeState]bool)

	// t0 is the spawn decision instant; everything before it is porter
	// queueing. probeNS/backoffNS split failoverDelay for attribution.
	t0 := p.c.Eng.Now()
	var probeNS, backoffNS des.Time

	// Per-request retry budget, shared by replica failovers and
	// node-down retries. Exhausting it degrades the request to a
	// scratch cold start and counts retry_exhausted — not a generic
	// fallback (satellite accounting fix).
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
				p.store.Reclaim(p.cfg.User, fn)
				delete(p.snaps, fn)
				img, haveCkpt = nil, false
			case deadAhead > 0:
				for i := 0; i < deadAhead && haveCkpt; i++ {
					if exhausted() {
						haveCkpt = false
						break
					}
					bo := p.backoff(attempts)
					failoverDelay += p.c.P.ReplicaFailoverTimeout + bo
					probeNS += p.c.P.ReplicaFailoverTimeout
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
			prof = p.profile(fn, pol)
			pages = prof.LocalPages
			remoteCopy = p.jitter(prof.RemoteCopy)
			dur = p.jitter(prof.Restore + prof.ColdExec - prof.RemoteCopy)
		} else {
			prof = p.profile(fn, rfork.MigrateOnWrite)
			pages = prof.FootprintPages
			remoteCopy = 0
			dur = p.jitter(prof.ColdInit + prof.ColdInitExec)
		}

		node, useGhost = p.placeOn(fn, pages, excluded)
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

	ghostPages := int(p.c.P.GhostContainerBytes / int64(p.c.P.PageSize))
	ownsCtr := false
	var containerNS des.Time
	if useGhost && haveCkpt {
		node.ghosts[fn]--
		dur += p.c.P.GhostContainerTrigger
		containerNS = p.c.P.GhostContainerTrigger
		p.replenishGhosts(node, fn)
	} else {
		// Fresh container: creation cost plus its fixed overhead.
		dur += p.c.P.ContainerCreate
		containerNS = p.c.P.ContainerCreate
		pages += ghostPages
		ownsCtr = true
	}
	node.usedPages += pages
	p.observeMem()

	inst := &instance{fn: fn, node: node, policy: pol, pages: pages, ownsCtr: ownsCtr, state: instSpawning}
	node.all[inst] = true
	req.cold = true
	if haveCkpt {
		p.res.ColdForks++
		// Pin the image for the duration of the restore: eviction may
		// drop it from the store meanwhile, but its frames must outlive
		// every in-flight restore (the eviction-safety invariant).
		img.Retain()
		p.store.Touch(p.cfg.User, fn, p.c.Eng.Now())
		if st := p.fns[fn]; st != nil {
			st.scoreBase = p.agingL
		}
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
			p.c.XRay.Observe(xray.Request{
				Class:   spanName,
				Name:    fn,
				Span:    int(span),
				Arrived: int64(req.arrived),
				Latency: int64(end - req.arrived),
				Device:  devIdx,
				Components: []xray.Component{
					{Name: xray.CompPorterQueue, NS: int64(t0 - req.arrived)},
					{Name: xray.CompUplink, NS: int64(uplinkNS)},
					{Name: xray.CompCPUQueue, NS: int64(execStart - cpuSubmit)},
					{Name: xray.CompProbe, NS: int64(probeNS)},
					{Name: xray.CompBackoff, NS: int64(backoffNS)},
					{Name: xray.CompFabric, NS: int64(fabricExtra)},
					{Name: restoreComp, NS: int64(restoreSvc)},
					{Name: xray.CompContainer, NS: int64(containerNS)},
					{Name: xray.CompExec, NS: int64(execSvc)},
				},
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
func (p *Porter) replenishGhosts(node *nodeState, fn string) {
	ghostPages := int(p.c.P.GhostContainerBytes / int64(p.c.P.PageSize))
	if node.ghosts[fn] >= p.cfg.GhostsPerFunction {
		return
	}
	if node.freePages() < ghostPages {
		// The consuming node is full: fall back to the least-loaded
		// surviving node with room, preferring one that already hosts fn
		// (a dedup-warm placement — see placeOn).
		node = p.ghostFallback(fn, ghostPages)
		if node == nil {
			return
		}
	}
	p.c.Eng.After(p.c.P.ContainerCreate, func() {
		if node.ghosts[fn] >= p.cfg.GhostsPerFunction || node.freePages() < ghostPages {
			return
		}
		node.ghosts[fn]++
		node.usedPages += ghostPages
		p.observeMem()
		p.pump()
	})
}

// placeOn picks a node with a free ghost (preferred) and enough memory,
// evicting idle instances if necessary. Crashed nodes and nodes in
// excluded are never candidates. It returns (nil, false) when no node
// can host the instance.
func (p *Porter) placeOn(fn string, pages int, excluded map[*nodeState]bool) (*nodeState, bool) {
	// Prefer nodes with a ghost for fn and room, least loaded first.
	cands := make([]*nodeState, 0, len(p.nodes))
	for _, n := range p.nodes {
		if excluded[n] || p.c.Faults.NodeDown(n.os.Index) {
			continue
		}
		cands = append(cands, n)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		li := cands[i].cpu.Busy() + cands[i].cpu.QueueLen()
		lj := cands[j].cpu.Busy() + cands[j].cpu.QueueLen()
		if li != lj {
			return li < lj
		}
		// Equal load: prefer the node already hosting fn. Its restores
		// and re-checkpoints run against device frames this function's
		// pages already deduped into, and its page cache is warm.
		return cands[i].hostsFn(fn) && !cands[j].hostsFn(fn)
	})
	if p.ghostsCompatible() {
		for _, n := range cands {
			if n.ghosts[fn] > 0 && n.freePages() >= pages {
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
			if p.ghostsCompatible() && n.ghosts[fn] > 0 {
				return n, true
			}
			return n, false
		}
	}
	return nil, false
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
	delete(in.node.all, in)
	ghostPages := int(p.c.P.GhostContainerBytes / int64(p.c.P.PageSize))
	release := in.pages
	if p.ghostsCompatible() {
		if in.ownsCtr {
			// The sandbox overhead stays allocated and joins the pool.
			release -= ghostPages
		}
		in.node.ghosts[in.fn]++
	}
	// CRIU-CXL containers are torn down entirely (in.pages includes the
	// overhead for every CRIU spawn, since ownsCtr is always true).
	in.node.usedPages -= release
	p.observeMem()
}

// complete finishes a request on inst.
func (p *Porter) complete(inst *instance, req *pending, end des.Time) {
	lat := end - req.arrived
	p.res.Overall.Record(lat)
	p.res.PerFunction[inst.fn].Record(lat)
	if req.cold && p.res.ColdLatency != nil {
		p.res.ColdLatency.Record(lat)
	}
	p.res.Completed++
	if end > p.lastDone {
		p.lastDone = end
	}
	if p.window > 0 && end <= p.base+p.window {
		p.res.WindowCompleted++
	}

	st := p.fns[inst.fn]
	if st.slo > 0 {
		ratio := float64(lat) / float64(st.slo)
		st.lateEWM = 0.7*st.lateEWM + 0.3*ratio
		p.maybePromote(st)
	}
	p.maybeRecheckpoint(inst)

	// Fast path: keep serving this function's queue with the instance.
	if len(st.queue) > 0 {
		next := st.queue[0]
		st.queue = append(st.queue[:0], st.queue[1:]...)
		p.serve(inst, next)
		return
	}

	inst.state = instIdle
	inst.idleSince = end
	inst.node.idle[inst.fn] = append(inst.node.idle[inst.fn], inst)
	window := p.c.P.KeepAlive
	if p.memPressure() {
		window = p.c.P.KeepAliveShort
	}
	inst.expire = p.c.Eng.After(window, func() {
		if inst.state == instIdle {
			p.destroy(inst)
			p.pump()
		}
	})
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
	st.policy = rfork.HybridTiering
	p.res.PolicyPromotions++
	// Running and idle instances adopt the new policy too: the porter
	// migrates their hot checkpointed pages to local memory over the
	// following invocations (modelled as an immediate profile switch;
	// the transition cost is a few MoA faults per instance).
	for _, n := range p.nodes {
		for in := range n.all {
			if in.fn == st.spec.Name {
				in.policy = rfork.HybridTiering
			}
		}
	}
}

// memPressure reports whether mean node utilization exceeds HighMem.
func (p *Porter) memPressure() bool {
	var u float64
	for _, n := range p.nodes {
		u += n.utilization()
	}
	return u/float64(len(p.nodes)) >= p.c.P.HighMemFraction
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
		if inst := p.findIdle(req.fn); inst != nil {
			st.queue = append(st.queue[:0], st.queue[1:]...)
			p.serve(inst, req)
			continue
		}
		if p.trySpawn(req.fn, req) {
			st.queue = append(st.queue[:0], st.queue[1:]...)
			continue
		}
		return
	}
}

// observeMem samples node memory utilization into the gauges.
func (p *Porter) observeMem() {
	if p.res.MemGauge == nil {
		return
	}
	for _, n := range p.nodes {
		if g, ok := p.res.MemGauge[n.os.Name]; ok {
			g.Observe(p.c.Eng.Now(), n.utilization())
		}
	}
}

// jitter multiplies a duration by U[0.9, 1.1) for realistic spread.
func (p *Porter) jitter(d des.Time) des.Time {
	return des.Time(float64(d) * (0.9 + 0.2*p.rng.Float64()))
}
