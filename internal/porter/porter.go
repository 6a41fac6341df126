package porter

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"cxlfork/internal/cluster"
	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/fabric"
	"cxlfork/internal/kernel"
	"cxlfork/internal/memsim"
	"cxlfork/internal/metrics"
	"cxlfork/internal/params"
	"cxlfork/internal/replica"
	"cxlfork/internal/rfork"
	"cxlfork/internal/telemetry"
	"cxlfork/internal/xray"
)

// Profile is the measured behaviour of one (function, mechanism,
// policy) combination, produced by mechanistic calibration runs.
type Profile struct {
	// Restore is the restore-phase latency.
	Restore des.Time
	// ColdExec is the first invocation's duration after restore,
	// including its fault costs.
	ColdExec des.Time
	// RemoteCopy is the portion of ColdExec spent copying pages from the
	// parent node (Mitosis only). Concurrent clones share the parent
	// node's uplink — the parent is a point of congestion (§3.1). Each
	// remote fault is a latency-bound ~1.6 GB/s stream, so the uplink
	// admits a handful of concurrent streams before queueing.
	RemoteCopy des.Time
	// WarmExec is the steady-state invocation duration.
	WarmExec des.Time
	// LocalPages is the instance's steady-state node-local footprint.
	LocalPages int
	// ColdInit is the full cold-start initialization time (no
	// checkpoint available), excluding container creation.
	ColdInit des.Time
	// ColdInitExec is the first invocation's duration after a scratch
	// cold start.
	ColdInitExec des.Time
	// FootprintPages is the full footprint (scratch cold start memory).
	FootprintPages int
}

// ProfileKey identifies a profile.
type ProfileKey struct {
	Function  string
	Mechanism string
	Policy    rfork.Policy
}

// Config tunes a porter deployment.
type Config struct {
	// Mechanism is the rfork design used for scaling.
	Mechanism rfork.Mechanism
	// Profiles maps every (function, mechanism, policy) the run may use.
	Profiles map[ProfileKey]Profile
	// StaticPolicy, when non-nil, pins the tiering policy (the paper's
	// CXLfork-MoW configuration). When nil and DynamicTiering is true,
	// the porter adapts per function.
	StaticPolicy *rfork.Policy
	// DynamicTiering enables SLO/memory driven policy adaptation (§5).
	DynamicTiering bool
	// GhostsPerFunction is the ghost container pool size per function
	// per node.
	GhostsPerFunction int
	// DisableGhosts turns the ghost container pool off entirely (every
	// spawn pays container creation) — the ablation for §5's ghost
	// containers.
	DisableGhosts bool
	// Seed drives execution-time jitter.
	Seed int64
	// NodeBudgetBytes overrides the per-node memory budget of the
	// scaling model (default params.NodeDRAMBytes). Fig. 10c shrinks it
	// to 50% and 25%.
	NodeBudgetBytes int64
}

// tenant is the user half of §5's <user, function> checkpoint key: one
// tenant owns every checkpoint, so checkpoint IDs read
// cid-tenant0-<function> and replica keys tenant0/<function>.
const tenant = "tenant0"

// sloFactor sets each function's latency SLO as a multiple of its
// all-local warm execution time.
const sloFactor = 1.25

// parentUplinkStreams is how many concurrent remote-fault copy streams
// the Mitosis parent node sustains at full per-stream rate before
// queueing (§3.1's congestion point).
const parentUplinkStreams = 6

// instState is an instance's lifecycle state in the scheduler.
type instState int

const (
	instSpawning instState = iota
	instBusy
	instIdle
	instDead
)

// instance is one live function instance in the queue model. It runs
// under its function's current tiering policy (maybePromote switches a
// function's live instances with it), and it is the Action of its own
// keep-alive timer.
type instance struct {
	p         *Porter
	fn        *fnState
	node      *nodeState
	pages     int
	ownsCtr   bool // spawned a fresh container (owns its 512 KB overhead)
	state     instState
	idleSince des.Time
	expire    des.EventID
	hasExpire bool
	warmRuns  int
}

// Fire is the keep-alive expiry: an instance still idle when its window
// closes is torn down, and the freed room goes to queued requests.
func (in *instance) Fire(des.Time) {
	if in.state == instIdle {
		in.p.destroy(in)
		in.p.pump()
	}
}

// nodeState is the per-node scheduler view.
type nodeState struct {
	os  *kernel.OS
	cpu *des.Resource
	// gauge samples the node's memory utilization during a replay.
	gauge *metrics.Gauge

	budgetPages   int
	usedPages     int
	reservedPages int // Mitosis shadow copies pinned on this node

	// ghosts, idle and live are indexed by function id: the pooled
	// empty sandboxes, the idle instances in the order they idled, and
	// the count of instances not yet destroyed (busy or idle).
	ghosts []int
	idle   [][]*instance
	live   []int
}

// createGhost pins a ghost container's sandbox overhead, pages frames
// of the node's DRAM, and charges its creation to the clock. The frames
// stay allocated for the rest of the run. A node without room for all
// of them keeps none.
func (n *nodeState) createGhost(pages int) error {
	if free := n.os.Mem.FreePages(); free < pages {
		return fmt.Errorf("porter: ghost container on %s needs %d frames, %d free: %w",
			n.os.Name, pages, free, memsim.ErrOutOfMemory)
	}
	for i := 0; i < pages; i++ {
		n.os.Mem.MustAlloc()
	}
	n.os.Eng.Advance(params.ContainerCreate)
	return nil
}

func (n *nodeState) freePages() int {
	return n.budgetPages - n.usedPages - n.reservedPages
}

func (n *nodeState) utilization() float64 {
	return float64(n.usedPages+n.reservedPages) / float64(n.budgetPages)
}

// numPolicies is the number of tiering policies a profile table holds.
const numPolicies = int(rfork.HybridTiering) + 1

// ckptRecord is a function's checkpoint as the capacity manager sees
// it: the published image, its restore recency, and the snapshot it is
// re-published from.
type ckptRecord struct {
	// img is the published checkpoint, on which the porter holds one
	// reference; nil until published and once evicted or lost.
	img rfork.Image
	// lastRestore is the virtual time of the most recent restore served
	// from img (zero if never restored); LRU ranks by it.
	lastRestore des.Time
	// snap is the frame-token snapshot of the image provisioning
	// published, kept across eviction for re-publication; nil when the
	// mechanism's images cannot be snapshotted or the data was lost.
	snap *ckptSnapshot
}

// evict drops the porter's reference on the published image. Live
// clones and in-flight restores keep theirs; the snapshot stays.
func (r *ckptRecord) evict() {
	r.img.Release()
	r.img = nil
}

// fnState is per-function control state.
type fnState struct {
	// id is the function's dense index: its position in Porter.fns, in
	// Setup order, and in every node's per-function slices.
	id     int
	spec   faas.Spec
	policy rfork.Policy
	ckptRecord
	// profs is the function's profile under each policy, resolved at
	// Setup with lookupProfile's fallback (nil: none calibrated).
	profs [numPolicies]*Profile
	// rec records the latency of each of the function's completed
	// requests in the current replay.
	rec     *metrics.LatencyRecorder
	slo     des.Time
	lateEWM float64 // EWMA of latency/SLO ratio
	queue   []*pending
	// coldRuns counts completions since the function's checkpoint was
	// evicted; at CheckpointAfter the capacity manager re-publishes.
	coldRuns int
	// demand counts request arrivals over the whole run, resident or
	// not. Cost-benefit scoring uses it as popularity rather than a
	// count of restores: restores only accrue while resident, so an
	// evicted checkpoint could never earn its way back in while every
	// resident kept climbing (once out, never back in).
	demand int64
	// scoreBase is the GDSF aging term: the capacity manager's aging
	// clock sampled when the function's checkpoint was last
	// re-published or restored. Added to the cost-benefit score, it
	// lets stale high-value images age out and currently-bursting
	// functions win admission (pure value scoring would refuse them
	// forever). Provisioning starts it at zero, whatever the clock
	// reads: Setup publishes every function before the replay's first
	// instant, in mix order, which is no measure of recency.
	scoreBase float64
	// reckpting marks a snapshot re-publish in flight on some core.
	reckpting bool
}

// pending is one request from arrival to completion. Records are
// pooled: newReq takes one from the porter's free list and complete
// returns it. A warm-served request is the Action of its own CPU job.
type pending struct {
	p       *Porter
	fn      *fnState
	arrived des.Time
	// cold marks a request served by a fresh spawn (fork restore or
	// scratch cold start) rather than a warm instance.
	cold bool
	// inst, dur and submit describe a warm invocation in flight: the
	// instance, the jittered execution time, and when it reached the
	// CPU queue.
	inst   *instance
	dur    des.Time
	submit des.Time
}

// profile returns the function's profile under pol.
func (st *fnState) profile(pol rfork.Policy) Profile {
	if pr := st.profs[pol]; pr != nil {
		return *pr
	}
	panic(fmt.Sprintf("porter: no %v profile for %s", pol, st.spec.Name))
}

// Results summarizes a trace replay.
type Results struct {
	// Overall is the read-only union of the PerFunction recorders
	// (metrics.Union): every latency is stored once, in its function's
	// recorder.
	Overall     *metrics.LatencyRecorder
	PerFunction map[string]*metrics.LatencyRecorder
	Completed   int
	WarmStarts  int
	ColdForks   int // served by restoring a checkpoint
	ScratchCold int // served by full cold start (no checkpoint)
	Evictions   int
	// CkptReclaims counts pages of checkpoints reclaimed under CXL
	// memory pressure.
	CkptReclaims int
	// WindowCompleted counts requests that completed within the arrival
	// window (the throughput numerator: a saturated design leaves work
	// queued past the window).
	WindowCompleted int
	MemGauge        map[string]*metrics.Gauge
	// Duration is the makespan: first arrival to last completion.
	Duration des.Time
	// PolicyPromotions counts dynamic MoW→HT switches.
	PolicyPromotions int
	// InjectedFaults is the number of faults the cluster's plan fired
	// (setup and trace combined).
	InjectedFaults int64
	// Retries counts restores/checkpoints re-attempted on an alternate
	// node after a fault.
	Retries int64
	// Fallbacks counts degradations to scratch cold starts after a
	// fault made the fork path unusable.
	Fallbacks int64
	// RecoveredBytes counts bytes reclaimed from torn checkpoint arenas
	// by recovery passes.
	RecoveredBytes int64
	// DedupHits / DedupMisses count checkpoint page writes satisfied by
	// the device's content-addressed frame cache vs. fresh copies.
	DedupHits   int64
	DedupMisses int64
	// DedupBytesSaved counts fabric write bytes elided by dedup hits.
	DedupBytesSaved int64
	// ColdLatency records the end-to-end latency of requests that were
	// served by a fresh spawn (fork restore or scratch cold start) — the
	// cold-start tail the capacity experiment compares eviction policies
	// on.
	ColdLatency *metrics.LatencyRecorder
	// RestoreLatency records the restore phase of every checkpoint-fork
	// spawn: the profile restore cost plus failover probing plus any
	// fabric path/contention charge. It isolates what the fabric and
	// the placement policy control from execution time and CPU
	// queueing — the "restore P99" the fabric sweep compares policies
	// on. Excluded from Fingerprint() (the flat goldens predate it);
	// the same charges already reach the hash through Overall and
	// ColdLatency.
	RestoreLatency *metrics.LatencyRecorder
	// ReclaimPasses counts watermark-triggered eviction passes.
	ReclaimPasses int64
	// EvictedCkpts counts checkpoints dropped by the eviction engine.
	EvictedCkpts int64
	// EvictedBytes counts device bytes eviction actually freed (true
	// occupancy deltas; dedup-shared frames and clone-pinned images
	// contribute only what really came back).
	EvictedBytes int64
	// DeferredBytes counts declared footprint of evicted images whose
	// release waits on live clones or in-flight restores.
	DeferredBytes int64
	// CkptRefused counts checkpoint publications the admission ladder
	// refused because the device could not get under its high watermark.
	CkptRefused int64
	// Recheckpoints counts evicted checkpoints re-published from their
	// frame-token snapshots.
	Recheckpoints int64
	// FailedRestores counts requests that found every replica of their
	// checkpoint on failed devices — the image is lost and the request
	// degrades to a scratch cold start.
	FailedRestores int
	// RetryExhausted counts requests whose per-request retry budget ran
	// out (distinct from Fallbacks: policy degradation vs. giving up).
	RetryExhausted int64
	// Failovers counts restores served by a non-preferred replica after
	// probing one or more dead devices.
	Failovers int64
	// ReplicasPlaced counts replica arenas created by placement and
	// repair; ReplicasShed counts replicas dropped under capacity
	// pressure.
	ReplicasPlaced int64
	ReplicasShed   int64
	// RepairCopies / RepairedPages count the anti-entropy loop's
	// rebuilt replicas and copied pages.
	RepairCopies  int64
	RepairedPages int64
	// LostImages counts images whose last healthy replica's device
	// failed.
	LostImages int64
	// UnderReplicated is the end-of-run replica deficit.
	UnderReplicated int64
	// RepairConverged is how long the last repair took from device loss
	// to full replication; RepairConvergedOK reports whether such a
	// convergence happened.
	RepairConverged   des.Time
	RepairConvergedOK bool

	// Observability accounting, mirrored from the tracer and telemetry
	// registry after the run so drop-driven data loss is visible in run
	// summaries without reaching through the facade. These fields are
	// deliberately excluded from Fingerprint(): enabling observation
	// must not change what a run "is".
	//
	// TraceDropped counts span events the tracer discarded on buffer
	// overflow.
	TraceDropped int64
	// TelemetrySamples counts telemetry sample ticks taken.
	TelemetrySamples int64
	// TelemetryDropped counts telemetry ring-buffer overwrites across
	// all series.
	TelemetryDropped int64
	// SLOAlertsFired counts SLO burn-rate alert fire transitions.
	SLOAlertsFired int64

	// Fabric accounting, mirrored from the topology contention model
	// (internal/fabric.Net) after the run; all zero on flat or trivial
	// topologies. Excluded from Fingerprint() so the flat model's
	// pinned goldens are untouched — fabric behaviour reaches the hash
	// through the latency recorders and Duration instead.
	//
	// FabricTransfers counts restores priced by the fabric model.
	FabricTransfers int64
	// FabricQueued counts per-link stream-slot claims that had to wait.
	FabricQueued int64
	// FabricQueueDelay is cumulative virtual time spent waiting for
	// link slots.
	FabricQueueDelay des.Time
	// FabricExtraDelay is the cumulative extra restore delay charged
	// beyond the flat single-hop baseline.
	FabricExtraDelay des.Time
}

// Throughput returns requests completed within the arrival window per
// virtual second of makespan.
func (r Results) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.WindowCompleted) / r.Duration.Seconds()
}

// Porter is the autoscaler.
type Porter struct {
	c     *cluster.Cluster
	cfg   Config
	nodes []*nodeState
	// ghostPages is the node memory one ghost container's sandbox
	// overhead occupies: GhostContainerBytes in pages.
	ghostPages int
	// fns holds the provisioned functions in Setup order, indexed by
	// id; byName finds them from the names arrivals carry. sorted holds
	// the same records ordered by function name: eviction and replica
	// shedding scan it, so score ties fall to the first name.
	fns    []*fnState
	byName map[string]*fnState
	sorted []*fnState
	rng    *rand.Rand
	// freeReqs recycles completed request records; cands is placeOn's
	// reusable candidate buffer, and xcomps the x-ray component buffer
	// each completion refills (Observe retains none of it).
	freeReqs []*pending
	cands    []*nodeState
	xcomps   []xray.Component

	res      Results
	base     des.Time
	lastDone des.Time
	window   des.Time

	// parentUplink serializes Mitosis' remote-fault copies out of the
	// parent node (all parents live on node 0 after Setup).
	parentUplink *des.Resource

	// policy is the capacity manager's eviction policy (params.EvictPolicy).
	policy EvictPolicy
	// agingL is the cost-benefit policy's GDSF aging clock: the score
	// of the most valuable checkpoint evicted so far. Checkpoints
	// re-published or restored after an eviction start from it, so
	// scores are comparable across time and recency breaks value ties.
	agingL float64
	// capc is the capacity manager's accounting, covering Setup and Run.
	capc metrics.CapacityCounters

	// rep replicates sealed checkpoints across the device pool; nil on
	// single-device clusters, where every replication path degenerates
	// to the original byte-identical behaviour.
	rep *replica.Manager
	// fabNet is the cluster's fabric contention model; nil when the
	// topology is absent or trivial, in which case no restore is ever
	// fabric-charged and the flat model stays byte-identical.
	fabNet *fabric.Net
	// backoffLog records every retry/failover backoff charged, in
	// order — the deterministic schedule the backoff regression test
	// compares across identically-seeded runs.
	backoffLog []des.Time

	// telem is the cluster's telemetry registry (nil when disabled);
	// slo evaluates burn-rate objectives after each sample tick.
	telem *telemetry.Registry
	slo   *telemetry.Engine
	// coldP99 tracks ColdLatency's P99 for its telemetry probe; nil
	// unless this porter registered the series. Run resets it with
	// ColdLatency.
	coldP99 *metrics.RunningPercentile
	// admits counts checkpoint publications (initial provisioning and
	// re-publications) for the admissions series.
	admits *telemetry.Counter
	// sloTighten, while the occupancy alert fires, drops checkpoint
	// admission from the high to the low watermark (DESIGN.md §11).
	sloTighten bool
}

// New creates a porter over a cluster.
func New(c *cluster.Cluster, cfg Config) *Porter {
	if cfg.GhostsPerFunction == 0 {
		cfg.GhostsPerFunction = 2
	}
	pol, err := ParseEvictPolicy(c.P.EvictPolicy)
	if err != nil {
		panic(err)
	}
	p := &Porter{
		c:          c,
		cfg:        cfg,
		byName:     make(map[string]*fnState),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		policy:     pol,
		ghostPages: int(params.GhostContainerBytes / int64(c.P.PageSize)),
	}
	if c.Pool != nil && c.Pool.N() > 1 {
		p.rep = replica.New(c.Pool, c.Eng, c.P)
	}
	p.fabNet = c.Net
	p.parentUplink = des.NewResource(c.Eng, parentUplinkStreams)
	budget := c.P.NodeDRAMBytes
	if cfg.NodeBudgetBytes > 0 {
		budget = cfg.NodeBudgetBytes
	}
	for _, os := range c.Nodes {
		p.nodes = append(p.nodes, &nodeState{
			os:          os,
			cpu:         des.NewResource(c.Eng, c.P.CoresPerNode),
			budgetPages: int(budget / int64(c.P.PageSize)),
		})
	}
	p.registerTelemetry()
	return p
}

// Checkpoint returns fn's published checkpoint, if it has one: none
// for a function never provisioned, whose checkpoint did not fit, or
// whose checkpoint was evicted and not yet re-published.
func (p *Porter) Checkpoint(fn string) (rfork.Image, bool) {
	if st := p.byName[fn]; st != nil && st.img != nil {
		return st.img, true
	}
	return nil, false
}

// publish makes img st's published checkpoint, taking over the caller's
// reference; st has none published (provisioning publishes once, and
// re-publication follows an eviction). Restore recency restarts: a
// (re-)published checkpoint earns its retention anew. Every
// publication, initial or re-published, counts as an admission.
func (p *Porter) publish(st *fnState, img rfork.Image) {
	st.img, st.lastRestore = img, 0
	p.admits.Inc()
}

// ghostsCompatible reports whether the mechanism can restore into ghost
// containers (CRIU-CXL cannot: it restores via the filesystem, §6.2).
func (p *Porter) ghostsCompatible() bool {
	return !p.cfg.DisableGhosts && p.cfg.Mechanism.Name() != "CRIU-CXL"
}

// backoff returns the capped exponential backoff for retry attempt n
// (0-based): params.RestoreRetryBackoff doubled per attempt, at most
// params.RestoreRetryBackoffCap. It appends the delay to the
// deterministic backoff log.
func (p *Porter) backoff(attempt int) des.Time {
	d := params.RestoreRetryBackoff
	for i := 0; i < attempt && d < params.RestoreRetryBackoffCap; i++ {
		d <<= 1
	}
	d = min(d, params.RestoreRetryBackoffCap)
	p.backoffLog = append(p.backoffLog, d)
	return d
}

// BackoffSchedule returns every backoff charged so far, in order. Two
// identically-seeded runs must produce byte-identical schedules.
func (p *Porter) BackoffSchedule() []des.Time {
	return append([]des.Time(nil), p.backoffLog...)
}

// replicaKey is the placement key for fn's checkpoint.
func (p *Porter) replicaKey(fn string) string { return tenant + "/" + fn }

// replicate fans a freshly published checkpoint out across the device
// pool, returning the replicated image in place of the mechanism's.
// The ingest device (0) is the placement affinity: its replica dedups
// against the just-written frames, so the preferred copy is free. The
// mechanism's image is released — its frames survive through the
// replica arenas' references. Images that cannot be snapshotted (no
// frame tokens) and placement failures keep the original image.
func (p *Porter) replicate(fn string, img rfork.Image) rfork.Image {
	if p.rep == nil {
		return img
	}
	tk, ok := img.(frameTokener)
	if !ok {
		return img
	}
	rimg, err := p.rep.Place(p.replicaKey(fn), img.ID(), img.Mechanism(),
		tk.FrameTokens(), tk.MetaBytes(), 0)
	if err != nil {
		return img
	}
	img.Release()
	return rimg
}

// Setup prepares the deployment: registers and warms every function's
// image files, builds a warmed parent for each function, checkpoints it
// after its 16th invocation (§5), publishes the checkpoint in the
// function's record, tears the parent down, and provisions ghost
// container pools.
// Setup time is charged to the engine but precedes the measured trace.
//
// Provisioning is fault-tolerant: a node that crashes mid-checkpoint is
// abandoned (the torn arena is recovered off the device) and the
// checkpoint retried on a surviving node after a backoff; a full device
// degrades the function to scratch cold starts instead of failing Setup.
// A spec name listed twice is an error, before anything is provisioned.
func (p *Porter) Setup(specs []faas.Spec) error {
	for i, s := range specs {
		if slices.ContainsFunc(specs[:i], func(o faas.Spec) bool { return o.Name == s.Name }) {
			return fmt.Errorf("porter: function %q provisioned twice", s.Name)
		}
	}
	cp := p.c.P
	for _, s := range specs {
		faas.RegisterFiles(p.c.FS, cp, s)
		for _, n := range p.c.Nodes {
			if err := faas.WarmLibraries(n, s); err != nil {
				return err
			}
		}
	}
	for _, s := range specs {
		if err := p.provision(s); err != nil {
			return err
		}
	}
	return nil
}

// firstUpNode returns the lowest-index node not crashed by a fault, or
// nil when the whole cluster is down.
func (p *Porter) firstUpNode() *nodeState {
	for _, n := range p.nodes {
		if !p.c.Faults.NodeDown(n.os.Index) {
			return n
		}
	}
	return nil
}

// provision sets up s's control state, builds a warmed parent and
// publishes its checkpoint, then fills the function's ghost pools.
func (p *Porter) provision(s faas.Spec) error {
	cp := p.c.P
	st := p.addFn(s)
	for attempt := 0; ; attempt++ {
		node := p.firstUpNode()
		if node == nil {
			return fmt.Errorf("porter: no surviving node to provision %s: %w", s.Name, rfork.ErrNodeDown)
		}
		in, err := faas.NewInstance(node.os, s)
		if err != nil {
			return err
		}
		if err := in.ColdInit(); err != nil {
			return err
		}
		if err := in.PrepareParent(cp.CheckpointAfter, p.rng); err != nil {
			return err
		}
		img, err := p.checkpointWithReclaim(in.Task, fmt.Sprintf("cid-%s-%s", tenant, s.Name))
		switch {
		case err == nil:
			img = p.replicate(s.Name, img)
			if tk, ok := img.(frameTokener); ok {
				st.snap = &ckptSnapshot{tokens: tk.FrameTokens(), metaBytes: tk.MetaBytes()}
			}
			p.publish(st, img)
			in.Exit()
			// Mitosis pins its shadow copy in the parent node's memory
			// for the lifetime of the image.
			node.reservedPages += int(img.LocalBytes() / int64(cp.PageSize))
		case errors.Is(err, rfork.ErrNodeDown):
			// The node died mid-checkpoint. Its torn arena is still
			// charged against the shared device: recover it, then retry
			// on a surviving node after a backoff. The dead node's local
			// state is lost with the node.
			st := p.c.Dev.Recover()
			p.c.Faults.Counters.RecoveredBytes.Add(st.Total())
			p.c.Faults.Counters.Retries.Inc()
			p.c.Eng.Advance(p.backoff(attempt))
			continue
		case errors.Is(err, cxl.ErrDeviceFull), errors.Is(err, memsim.ErrOutOfMemory):
			// Still no room after the capacity manager's evict-and-retry
			// rounds (checkpointWithReclaim): the function degrades to
			// scratch cold starts — the checkpoint rollback left occupancy
			// as it was. Setup itself succeeds (the degradation ladder's
			// last rung; a later re-checkpoint may still publish it).
			in.Exit()
			p.c.Faults.Counters.Fallbacks.Inc()
		default:
			return err
		}
		break
	}

	if p.ghostsCompatible() {
		for _, n := range p.nodes {
			if p.c.Faults.NodeDown(n.os.Index) {
				continue
			}
			for i := 0; i < p.cfg.GhostsPerFunction; i++ {
				if err := n.createGhost(p.ghostPages); err != nil {
					return err
				}
				n.ghosts[st.id]++
				n.usedPages += p.ghostPages
			}
		}
	}
	return nil
}

// addFn registers fresh control state for s under the next dense id.
// Every node's per-function slices grow with the ids.
func (p *Porter) addFn(s faas.Spec) *fnState {
	st := &fnState{id: len(p.fns), spec: s, policy: rfork.MigrateOnWrite}
	if p.cfg.StaticPolicy != nil {
		st.policy = *p.cfg.StaticPolicy
	}
	for pol := range st.profs {
		if pr, ok := p.lookupProfile(s.Name, rfork.Policy(pol)); ok {
			st.profs[pol] = &pr
		}
	}
	st.slo = des.Time(sloFactor * float64(st.profile(rfork.MigrateOnAccess).WarmExec))
	p.fns = append(p.fns, st)
	for _, n := range p.nodes {
		n.ghosts = append(n.ghosts, 0)
		n.idle = append(n.idle, nil)
		n.live = append(n.live, 0)
	}
	p.byName[s.Name] = st
	i, _ := slices.BinarySearchFunc(p.sorted, s.Name, func(r *fnState, name string) int {
		return strings.Compare(r.spec.Name, name)
	})
	p.sorted = slices.Insert(p.sorted, i, st)
	return st
}

// lookupProfile fetches the profile for a function under a policy,
// falling back to the mechanism's canonical (MoW-keyed) entry for
// baselines.
func (p *Porter) lookupProfile(fn string, pol rfork.Policy) (Profile, bool) {
	if pr, ok := p.cfg.Profiles[ProfileKey{fn, p.cfg.Mechanism.Name(), pol}]; ok {
		return pr, true
	}
	pr, ok := p.cfg.Profiles[ProfileKey{fn, p.cfg.Mechanism.Name(), rfork.MigrateOnWrite}]
	return pr, ok
}
