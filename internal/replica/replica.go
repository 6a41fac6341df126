package replica

import (
	"fmt"
	"sort"

	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/fabric"
	"cxlfork/internal/metrics"
	"cxlfork/internal/params"
	"cxlfork/internal/rfork"
	"cxlfork/internal/telemetry"
)

// vnodesPerDevice is how many virtual nodes each device contributes to
// the placement ring. 16 keeps per-device load within a few percent of
// even for small pools while keeping ring walks cheap.
const vnodesPerDevice = 16

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashString is FNV-1a over s — the placement hash (DESIGN.md §12).
func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// ringPoint is one virtual node on the placement ring.
type ringPoint struct {
	hash uint64
	dev  int
}

// repairJob is a partially-built replica the repair loop resumes across
// ticks: the staged arena on the target device and the next token to
// copy.
type repairJob struct {
	dev   int
	arena *cxl.Arena
	next  int
}

// imageState is the manager's record of one replicated image. placed is
// the restore preference list; devices that failed stay on it — still
// costing a failover probe per restore — until repair brings the image
// back to full replication and prunes them. replicas holds the live
// arena per surviving device.
type imageState struct {
	key       string
	id        string
	mech      string
	tokens    []uint64
	metaBytes int64
	placed    []int
	replicas  map[int]*cxl.Arena
	gen       int
	repair    *repairJob
}

// Replica describes one entry of an image's preference list.
type Replica struct {
	// Dev is the pool device index.
	Dev int
	// Healthy reports whether the device still holds a live copy.
	Healthy bool
}

// Manager places sealed checkpoints on K pool devices and repairs the
// placement after device loss. It is not safe for concurrent use,
// matching the single-goroutine DES discipline.
type Manager struct {
	pool   *cxl.DevicePool
	eng    *des.Engine
	p      params.Params
	factor int
	ring   []ringPoint
	images map[string]*imageState

	// topo is the pool's fabric topology (nil on flat pools); locality
	// selects the "locality" placement policy, which reweights the
	// ring walk to spread replicas across switches and prefer devices
	// with low mean path cost (DESIGN.md §14).
	topo     *fabric.Topology
	locality bool

	// C tallies placement, failover, shed, repair, and loss events.
	C metrics.ReplicaCounters

	lossAt      des.Time
	pendingLoss bool
	converged   bool
	convergedAt des.Time
}

// CheckPlacement returns an error unless policy names a placement
// policy: "hash" (or "", the default) or "locality".
func CheckPlacement(policy string) error {
	switch policy {
	case "", "hash", "locality":
		return nil
	}
	return fmt.Errorf("unknown placement policy %q (want hash or locality)", policy)
}

// New builds a manager over pool with replication factor
// p.ReplicationFactor, clamped to [1, pool.N()].
func New(pool *cxl.DevicePool, eng *des.Engine, p params.Params) *Manager {
	k := p.ReplicationFactor
	if k < 1 {
		k = 1
	}
	if k > pool.N() {
		k = pool.N()
	}
	m := &Manager{
		pool:     pool,
		eng:      eng,
		p:        p,
		factor:   k,
		images:   make(map[string]*imageState),
		topo:     pool.Topology(),
		locality: p.PlacementPolicy == "locality" && pool.Topology() != nil,
	}
	for d := 0; d < pool.N(); d++ {
		for v := 0; v < vnodesPerDevice; v++ {
			m.ring = append(m.ring, ringPoint{
				hash: hashString(fmt.Sprintf("%s#%d", pool.Device(d).Name(), v)),
				dev:  d,
			})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		return m.ring[i].dev < m.ring[j].dev
	})
	return m
}

// Factor returns the configured replication factor (clamped to the
// pool size).
func (m *Manager) Factor() int { return m.factor }

// EffectiveFactor is the replication an image can actually reach right
// now: the configured factor, bounded by surviving devices.
func (m *Manager) EffectiveFactor() int {
	if h := m.pool.Healthy(); h < m.factor {
		return h
	}
	return m.factor
}

// ringOrder returns every pool device in ring-walk order starting at
// key's hash — the consistent-hash preference order.
func (m *Manager) ringOrder(key string) []int {
	h := hashString(key)
	start := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	out := make([]int, 0, m.pool.N())
	seen := make(map[int]bool, m.pool.N())
	for n := 0; n < len(m.ring) && len(out) < m.pool.N(); n++ {
		pt := m.ring[(start+n)%len(m.ring)]
		if !seen[pt.dev] {
			seen[pt.dev] = true
			out = append(out, pt.dev)
		}
	}
	return out
}

// load returns how many tracked images currently keep a replica on
// device d — the signal locality placement balances within a switch.
func (m *Manager) load(d int) int {
	n := 0
	for _, st := range m.images {
		if _, ok := st.replicas[d]; ok {
			n++
		}
	}
	return n
}

// placeOrder returns the device order to try for key once the seed
// devices (already chosen — the dedup-affinity ingest device on
// placement, the surviving replicas on repair) are accounted for.
// Policy "hash" is the pure ring walk. Policy "locality" greedily
// reorders the walk: devices on switches no seed or earlier pick has
// touched come first (replicas spread across failure/contention
// domains), then fewer resident replicas (restore storms split across
// a switch's devices instead of stacking on whichever device the ring
// favours), then lower mean host-path cost, keeping ring position on
// exact ties. All criteria are invariant under topology relabeling —
// switch names only gate membership of the used set, never ordering —
// so isomorphic specs place identically.
func (m *Manager) placeOrder(key string, seed []int) []int {
	ring := m.ringOrder(key)
	if !m.locality {
		return ring
	}
	used := make(map[string]bool)
	for _, d := range seed {
		if d >= 0 && d < m.pool.N() {
			used[m.topo.DeviceSwitch(d)] = true
		}
	}
	remaining := ring
	out := make([]int, 0, len(remaining))
	for len(remaining) > 0 {
		best := 0
		for i := 1; i < len(remaining); i++ {
			d, b := remaining[i], remaining[best]
			dUsed, bUsed := used[m.topo.DeviceSwitch(d)], used[m.topo.DeviceSwitch(b)]
			if dUsed != bUsed {
				if !dUsed {
					best = i
				}
				continue
			}
			if dl, bl := m.load(d), m.load(b); dl != bl {
				if dl < bl {
					best = i
				}
				continue
			}
			if dc, bc := m.topo.DeviceCost(d), m.topo.DeviceCost(b); dc < bc {
				best = i
			}
			// Exact tie: the earlier ring position wins (best stays).
		}
		d := remaining[best]
		used[m.topo.DeviceSwitch(d)] = true
		out = append(out, d)
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return out
}

// NearestHealthy returns the healthy replica device for key with the
// lowest path latency from host; -1 when key is unknown or every
// replica is gone. Equal-latency candidates are spread
// deterministically by (host, key) — equidistant replicas share the
// restore load instead of funnelling every restore onto the
// first-placed (ingest-affine) copy, which is what makes a sharded
// pool actually shard. Without a topology it degenerates to the first
// healthy entry of the preference list — the flat model's restore
// source.
func (m *Manager) NearestHealthy(key string, host int) int {
	st := m.images[key]
	if st == nil {
		return -1
	}
	var cands []int
	for _, d := range st.placed {
		if _, live := st.replicas[d]; !live || m.pool.Failed(d) {
			continue
		}
		if m.topo == nil {
			return d
		}
		switch {
		case len(cands) == 0 || m.topo.PathLat(host, d) == m.topo.PathLat(host, cands[0]):
			cands = append(cands, d)
		case m.topo.PathLat(host, d) < m.topo.PathLat(host, cands[0]):
			cands = append(cands[:0], d)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[(uint64(host)+hashString(key))%uint64(len(cands))]
}

// sortedKeys returns the image keys in sorted order, the deterministic
// iteration every pass uses.
func (m *Manager) sortedKeys() []string {
	keys := make([]string, 0, len(m.images))
	for k := range m.images {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Place replicates a sealed checkpoint onto up to Factor() devices and
// returns the replicated image. tokens are the checkpoint's data-frame
// content tokens (replayed through each device's dedup index) and
// metaBytes its metadata footprint. affinity lists devices to prefer
// ahead of the ring walk — the ingest device, whose identical frames
// make the first replica free. Devices that are failed or full are
// skipped; the image proceeds under-replicated (repair catches it up)
// as long as at least one replica lands, and errors otherwise.
func (m *Manager) Place(key, id, mech string, tokens []uint64, metaBytes int64, affinity ...int) (*Image, error) {
	if _, ok := m.images[key]; ok {
		return nil, fmt.Errorf("replica: image %q already placed", key)
	}
	st := &imageState{
		key:       key,
		id:        id,
		mech:      mech,
		tokens:    append([]uint64(nil), tokens...),
		metaBytes: metaBytes,
		replicas:  make(map[int]*cxl.Arena),
	}
	order := make([]int, 0, m.pool.N())
	seen := make(map[int]bool, m.pool.N())
	for _, d := range affinity {
		if d >= 0 && d < m.pool.N() && !seen[d] {
			seen[d] = true
			order = append(order, d)
		}
	}
	for _, d := range m.placeOrder(key, order) {
		if !seen[d] {
			seen[d] = true
			order = append(order, d)
		}
	}
	for _, d := range order {
		if len(st.placed) >= m.factor {
			break
		}
		if m.pool.Failed(d) {
			continue
		}
		m.buildReplica(st, d)
	}
	if len(st.placed) == 0 {
		return nil, fmt.Errorf("replica: no device could hold image %q: %w", key, cxl.ErrDeviceFull)
	}
	m.images[key] = st
	m.C.Placed.Add(int64(len(st.placed)))
	return &Image{m: m, st: st, refs: rfork.NewRefCount()}, nil
}

// buildReplica creates one complete sealed replica of st on device d,
// rolling back the staged arena on any failure.
func (m *Manager) buildReplica(st *imageState, d int) bool {
	dev := m.pool.Device(d)
	st.gen++
	arena, err := dev.BuildArena(fmt.Sprintf("%s@%s#g%d", st.id, dev.Name(), st.gen), st.tokens, st.metaBytes)
	if err != nil {
		return false
	}
	st.replicas[d] = arena
	st.placed = append(st.placed, d)
	return true
}

// Len returns the number of tracked images.
func (m *Manager) Len() int { return len(m.images) }

// Replicas returns key's preference list in placement order, flagging
// which entries are still healthy. Nil when key is unknown.
func (m *Manager) Replicas(key string) []Replica {
	st := m.images[key]
	if st == nil {
		return nil
	}
	out := make([]Replica, 0, len(st.placed))
	for _, d := range st.placed {
		_, live := st.replicas[d]
		out = append(out, Replica{Dev: d, Healthy: live && !m.pool.Failed(d)})
	}
	return out
}

// Probe reports key's restore prospects: how many healthy replicas
// survive, and how many dead devices a restore must probe (and time
// out on) before reaching the first healthy one.
func (m *Manager) Probe(key string) (healthy, deadAhead int) {
	st := m.images[key]
	if st == nil {
		return 0, 0
	}
	healthy = len(st.replicas)
	for _, d := range st.placed {
		if _, live := st.replicas[d]; live {
			break
		}
		deadAhead++
	}
	return healthy, deadAhead
}

// OnDeviceLoss prunes every replica that lived on the lost device and
// opens the repair window. The arenas are not released — the device is
// gone, and its occupancy with it. Images whose last replica was on dev
// are lost outright; they stay tracked until the owner releases them,
// but every Probe reports zero healthy copies.
func (m *Manager) OnDeviceLoss(dev int) {
	m.pendingLoss = true
	m.converged = false
	m.lossAt = m.eng.Now()
	for _, key := range m.sortedKeys() {
		st := m.images[key]
		if st.repair != nil && st.repair.dev == dev {
			st.repair = nil
		}
		if _, ok := st.replicas[dev]; ok {
			delete(st.replicas, dev)
			if len(st.replicas) == 0 {
				m.C.LostImages.Inc()
			}
		}
	}
}

// ShedOn drops key's replica on device dev to relieve capacity
// pressure. It refuses — returning false — when the image has one or
// zero healthy copies: shedding never removes the last healthy copy.
func (m *Manager) ShedOn(key string, dev int) bool {
	st := m.images[key]
	if st == nil || len(st.replicas) <= 1 {
		return false
	}
	a, ok := st.replicas[dev]
	if !ok || m.pool.Failed(dev) {
		return false
	}
	delete(st.replicas, dev)
	for i, d := range st.placed {
		if d == dev {
			st.placed = append(st.placed[:i], st.placed[i+1:]...)
			break
		}
	}
	a.Release()
	m.C.Shed.Inc()
	return true
}

// SheddableOn reports whether key has a healthy replica on dev that
// ShedOn could legally drop (more than one healthy copy).
func (m *Manager) SheddableOn(key string, dev int) bool {
	st := m.images[key]
	if st == nil || len(st.replicas) <= 1 || m.pool.Failed(dev) {
		return false
	}
	_, ok := st.replicas[dev]
	return ok
}

// UnderReplication returns the total replica deficit: for every image
// that still has at least one healthy copy, how many more replicas the
// effective factor calls for. Images with zero copies are lost, not
// under-replicated — no amount of repair brings them back.
func (m *Manager) UnderReplication() int {
	want := m.EffectiveFactor()
	total := 0
	for _, st := range m.images {
		if h := len(st.replicas); h >= 1 && h < want {
			total += want - h
		}
	}
	return total
}

// RepairTick runs one anti-entropy pass: copy up to
// p.RepairBandwidthPages pages toward rebuilding under-replicated
// images, resuming partial replicas from previous ticks, in sorted key
// order for determinism. It returns the pages copied. When the pass
// (or any earlier one) has driven the deficit to zero after a loss,
// convergence is timestamped.
func (m *Manager) RepairTick() int {
	budget := m.p.RepairBandwidthPages
	if budget <= 0 {
		budget = 1
	}
	want := m.EffectiveFactor()
	copied := 0
	for _, key := range m.sortedKeys() {
		if copied >= budget {
			break
		}
		st := m.images[key]
		for len(st.replicas) >= 1 && len(st.replicas) < want && copied < budget {
			if st.repair == nil && !m.startRepair(st) {
				break
			}
			n, ok := m.advanceRepair(st, budget-copied)
			copied += n
			if !ok || st.repair != nil {
				break
			}
		}
	}
	m.C.RepairedPages.Add(int64(copied))
	if m.pendingLoss && m.UnderReplication() == 0 {
		m.pendingLoss = false
		m.converged = true
		m.convergedAt = m.eng.Now()
	}
	return copied
}

// startRepair stages a new replica arena for st on the first
// placement-order device (ring walk, locality-reweighted when the
// policy asks — seeded with the surviving copies so the rebuilt
// replica lands on an uncovered switch) that is healthy and not
// already hosting a copy.
func (m *Manager) startRepair(st *imageState) bool {
	live := make([]int, 0, len(st.replicas))
	for d := range st.replicas {
		live = append(live, d)
	}
	sort.Ints(live)
	for _, d := range m.placeOrder(st.key, live) {
		if m.pool.Failed(d) {
			continue
		}
		if _, ok := st.replicas[d]; ok {
			continue
		}
		dev := m.pool.Device(d)
		st.gen++
		arena, err := dev.NewArena(fmt.Sprintf("%s@%s#g%d", st.id, dev.Name(), st.gen))
		if err != nil {
			continue
		}
		st.repair = &repairJob{dev: d, arena: arena}
		return true
	}
	return false
}

// advanceRepair copies up to budget pages of st's in-flight repair. It
// returns the pages copied and whether the job is still viable: a
// device that fills mid-copy rolls the staged arena back (false), and
// the next tick retries from scratch. A completed replica is sealed,
// registered, and — once the image is back at full replication — the
// dead devices are pruned from its preference list.
func (m *Manager) advanceRepair(st *imageState, budget int) (int, bool) {
	job := st.repair
	dev := m.pool.Device(job.dev)
	copied := 0
	for job.next < len(st.tokens) && copied < budget {
		f, _, err := dev.AllocToken(st.tokens[job.next])
		if err != nil {
			job.arena.Release()
			st.repair = nil
			return copied, false
		}
		job.arena.TrackFrame(f)
		job.next++
		copied++
	}
	if job.next < len(st.tokens) {
		return copied, true // budget exhausted; resume next tick
	}
	if _, err := job.arena.Alloc("replica-meta", st.metaBytes); err != nil {
		job.arena.Release()
		st.repair = nil
		return copied, false
	}
	if err := job.arena.Seal(); err != nil {
		job.arena.Release()
		st.repair = nil
		return copied, false
	}
	st.replicas[job.dev] = job.arena
	st.placed = append(st.placed, job.dev)
	st.repair = nil
	m.C.RepairCopies.Inc()
	m.C.Placed.Inc()
	if len(st.replicas) >= m.EffectiveFactor() {
		live := st.placed[:0]
		for _, d := range st.placed {
			if !m.pool.Failed(d) {
				live = append(live, d)
			}
		}
		st.placed = live
	}
	return copied, true
}

// RepairPending reports whether a device loss has happened whose repair
// has not yet converged.
func (m *Manager) RepairPending() bool { return m.pendingLoss }

// ConvergenceTime returns how long the last repair took from device
// loss to a zero deficit, and whether such a convergence has happened.
func (m *Manager) ConvergenceTime() (des.Time, bool) {
	if !m.converged {
		return 0, false
	}
	return m.convergedAt - m.lossAt, true
}

// drop forgets st and releases every live arena it still owns,
// including a staged repair arena. Called by the image's last Release.
func (m *Manager) drop(st *imageState) {
	if m.images[st.key] != st {
		return
	}
	delete(m.images, st.key)
	if st.repair != nil {
		if !m.pool.Failed(st.repair.dev) {
			st.repair.arena.Release()
		}
		st.repair = nil
	}
	devs := make([]int, 0, len(st.replicas))
	for d := range st.replicas {
		devs = append(devs, d)
	}
	sort.Ints(devs)
	for _, d := range devs {
		if !m.pool.Failed(d) {
			st.replicas[d].Release()
		}
	}
	st.replicas = nil
	st.placed = nil
}

// RegisterTelemetry registers the manager's replication series.
func (m *Manager) RegisterTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.Gauge("replica_images", "images tracked by the replication manager",
		func(des.Time) float64 { return float64(len(m.images)) })
	reg.Gauge("replica_under_replicated", "total replica deficit across images with a surviving copy",
		func(des.Time) float64 { return float64(m.UnderReplication()) })
	reg.CounterFunc("replica_placed_total", "replica arenas created by placement and repair",
		func(des.Time) float64 { return float64(m.C.Placed.Value()) })
	reg.CounterFunc("replica_failovers_total", "restores served by a non-preferred replica",
		func(des.Time) float64 { return float64(m.C.Failovers.Value()) })
	reg.CounterFunc("replica_shed_total", "replicas dropped by capacity pressure",
		func(des.Time) float64 { return float64(m.C.Shed.Value()) })
	reg.CounterFunc("replica_repair_copies_total", "replicas rebuilt by the anti-entropy repair loop",
		func(des.Time) float64 { return float64(m.C.RepairCopies.Value()) })
	reg.CounterFunc("replica_repaired_pages_total", "pages copied by the repair loop",
		func(des.Time) float64 { return float64(m.C.RepairedPages.Value()) })
	reg.CounterFunc("replica_lost_images_total", "images lost with their last replica's device",
		func(des.Time) float64 { return float64(m.C.LostImages.Value()) })
}

// Image is a K-replicated checkpoint. It implements rfork.Image —
// CXLBytes and Pages describe the single-copy declared footprint, the
// figure restore cost models care about — plus the capacity manager's
// dedup-aware and snapshot interfaces. The last Release drops every
// healthy replica and the manager's record.
type Image struct {
	m    *Manager
	st   *imageState
	refs rfork.RefCount
}

var _ rfork.Image = (*Image)(nil)

// ID returns the checkpoint ID.
func (im *Image) ID() string { return im.st.id }

// Mechanism names the mechanism that produced the checkpoint.
func (im *Image) Mechanism() string { return im.st.mech }

// Key returns the placement key.
func (im *Image) Key() string { return im.st.key }

// CXLBytes is the single-copy declared device footprint: data pages
// plus metadata, ignoring both dedup sharing and extra replicas.
func (im *Image) CXLBytes() int64 {
	return int64(len(im.st.tokens))*int64(im.m.p.PageSize) + im.st.metaBytes
}

// LocalBytes is zero: replicated images pin no parent-node memory.
func (im *Image) LocalBytes() int64 { return 0 }

// Pages is the number of checkpointed data pages (single copy).
func (im *Image) Pages() int { return len(im.st.tokens) }

// Retain adds a reference.
func (im *Image) Retain() { im.refs.Retain() }

// Release drops a reference; at zero every healthy replica is released
// and the manager forgets the image.
func (im *Image) Release() {
	if !im.refs.Release() {
		return
	}
	im.m.drop(im.st)
}

// Refs returns the current reference count.
func (im *Image) Refs() int { return im.refs.Count() }

// ReclaimableBytes is the device occupancy delta releasing the image
// would produce across surviving devices: each healthy replica's arena
// metadata plus its exclusive frames.
func (im *Image) ReclaimableBytes() int64 {
	var n int64
	for d, a := range im.st.replicas {
		if !im.m.pool.Failed(d) {
			n += a.ExclusiveBytes()
		}
	}
	return n
}

// FrameTokens returns the checkpoint's content tokens (the capacity
// manager's re-publication snapshot).
func (im *Image) FrameTokens() []uint64 {
	return append([]uint64(nil), im.st.tokens...)
}

// MetaBytes returns the checkpoint's metadata footprint.
func (im *Image) MetaBytes() int64 { return im.st.metaBytes }
