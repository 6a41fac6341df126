package cxlfork

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/criu"
	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/kernel"
	"cxlfork/internal/mitosis"
	"cxlfork/internal/params"
	"cxlfork/internal/rfork"
	"cxlfork/internal/trace"
	"cxlfork/internal/vma"
	"cxlfork/internal/xray"
)

// Typed failure sentinels surfaced by checkpoint/restore paths. Test
// with errors.Is: wrapped variants carry context (which node, which
// image, which step).
var (
	// ErrTornImage marks a checkpoint whose publication never reached
	// its seal (the publishing node died mid-sequence).
	ErrTornImage = rfork.ErrTornImage
	// ErrImageCorrupt marks a checkpoint whose records fail their
	// checksums or cannot be decoded.
	ErrImageCorrupt = rfork.ErrImageCorrupt
	// ErrNodeDown marks an operation that targeted a crashed node.
	ErrNodeDown = rfork.ErrNodeDown
	// ErrDeviceFull marks CXL device capacity exhaustion.
	ErrDeviceFull = cxl.ErrDeviceFull
	// ErrDeviceFailed marks an operation against a pool device that a
	// DeviceLoss fault (or FailDevice) has permanently killed.
	ErrDeviceFailed = cxl.ErrDeviceFailed
)

// Config describes the simulated platform.
type Config struct {
	// Nodes is the number of compute nodes sharing the CXL device.
	Nodes int
	// NodeDRAM is per-node local memory in bytes.
	NodeDRAM int64
	// CXLCapacity is the shared device capacity in bytes.
	CXLCapacity int64
	// CXLLatency is the round-trip latency to CXL memory (391ns on the
	// paper's FPGA prototype).
	CXLLatency time.Duration
	// Cores is the number of cores per node.
	Cores int
	// CheckpointLanes is the number of worker lanes checkpoint pipelines
	// shard across; 0 keeps the single-lane default (the sequential
	// accounting). Lanes contend on the fabric's copy streams, so the
	// speedup is sub-linear past a few lanes.
	CheckpointLanes int
	// RestoreLanes is the restore-side lane count; 0 keeps one lane.
	RestoreLanes int
	// Trace enables the virtual-time span tracer. Tracing is purely
	// observational — it never advances the clock — so enabling it
	// changes no simulated result, only records one.
	Trace bool
	// XRay enables critical-path latency attribution (DESIGN.md §16):
	// every request's latency is decomposed into named blame
	// components, fabric links report contention heat, and XRayReport
	// (or RunReport.XRay for workload runs) exposes the deterministic
	// blame report. Like tracing, attribution is purely observational
	// — enabling it changes no simulated result.
	XRay bool
	// Capacity tunes the device-capacity manager (checkpoint eviction
	// under memory pressure, DESIGN.md §10). Zero values keep defaults.
	Capacity CapacityConfig
	// Replication tunes the multi-device pool and checkpoint replica
	// placement (DESIGN.md §12). Zero values keep the single-device,
	// single-copy default, whose behaviour is byte-identical to builds
	// without a pool.
	Replication ReplicationConfig
	// Fabric declares an explicit multi-switch topology and the replica
	// placement policy run over it (DESIGN.md §14). The zero value
	// keeps the flat single-hop fabric.
	Fabric FabricConfig
	// Telemetry tunes the virtual-time metric sampler (DESIGN.md §11).
	// Like tracing, sampling is purely observational.
	Telemetry TelemetryConfig
	// Workers is the simulation worker count (DESIGN.md §13). At 0 or 1
	// everything runs sequentially; above 1, independent simulation
	// legs (per-function calibration, sweep cells) fan out to a
	// goroutine pool, each on its own event queue. Results are
	// byte-identical at any worker count — workers trade wall-clock
	// time only, never determinism.
	Workers int
	// Seed drives all randomized behaviour (deterministic by default).
	Seed int64
}

// TelemetryConfig tunes the deterministic metric sampler: every layer
// registers gauges/counters against a shared registry that is probed
// on a fixed virtual-time tick into bounded ring-buffer series.
type TelemetryConfig struct {
	// Enabled turns sampling on.
	Enabled bool
	// SampleEvery is the virtual-time sampling period (default 100ms).
	SampleEvery time.Duration
	// SeriesCap bounds each series' sample ring (default 4096); once
	// full the oldest sample is overwritten and counted as dropped.
	SeriesCap int
	// SLOOccupancy, when non-zero, declares a device-occupancy
	// objective (utilization fraction samples should stay at or below)
	// evaluated by multi-window burn-rate alerts (DESIGN.md §11).
	SLOOccupancy float64
	// SLOColdStartP99, when non-zero, declares a cold-start tail
	// objective: the running cold P99 should stay at or below this.
	SLOColdStartP99 time.Duration
	// SLODrive lets a firing occupancy alert drive the capacity
	// manager (early reclaim toward the low watermark plus tightened
	// admission) instead of only observing.
	SLODrive bool
}

// CapacityConfig tunes checkpoint eviction on the shared device. The
// capacity manager runs inside CXLporter (the autoscaler): when device
// occupancy crosses HighWatermark it evicts checkpoints by EvictPolicy
// until occupancy drops to LowWatermark, deferring any image a live
// clone or in-flight restore still references.
type CapacityConfig struct {
	// EvictPolicy picks eviction victims: "costbenefit" (lowest expected
	// restore-latency-saved per resident byte first; default), "lru"
	// (least recently restored first), or "largest" (largest reclaimable
	// footprint first).
	EvictPolicy string
	// HighWatermark is the device occupancy fraction that triggers
	// eviction (default 0.90).
	HighWatermark float64
	// LowWatermark is the occupancy fraction eviction drives the device
	// back down to (default 0.75).
	LowWatermark float64
	// ReclaimPeriod is the background occupancy re-check interval on the
	// virtual clock (default 1s).
	ReclaimPeriod time.Duration
}

// ReplicationConfig tunes the fabric-attached device pool and the
// replica manager that fans sealed checkpoints across it
// (DESIGN.md §12). CXLCapacity is split evenly (page-aligned) across
// Devices; each sealed checkpoint is placed on Factor devices by
// consistent hashing with dedup affinity to the ingest device. When a
// device dies (DeviceLoss fault or FailDevice) restores fail over down
// the replica list under a per-request retry budget, and an
// anti-entropy repair loop rebuilds missing copies on the virtual
// clock.
type ReplicationConfig struct {
	// Devices is the pool size; 0 or 1 keeps the single device.
	Devices int
	// Factor is the number of devices holding each sealed checkpoint
	// (clamped to the pool size; default 1).
	Factor int
	// RepairPeriod is the anti-entropy loop's tick (default 500ms).
	RepairPeriod time.Duration
	// RetryBudget is the per-restore retry budget shared by replica
	// failover probes and node-down retries (default 3).
	RetryBudget int
}

// FabricConfig declares the CXL fabric topology (DESIGN.md §14). A
// non-empty Topology is an internal/fabric spec — host/switch/device
// declarations plus links with optional lat=/bw=/streams= attributes —
// that the cluster builds into an explicit graph: the spec's device
// count overrides ReplicationConfig.Devices, restores are routed from
// the nearest healthy replica, and non-trivial topologies charge real
// per-link path latency and stream contention on every restore.
type FabricConfig struct {
	// Topology is the fabric spec text ("" keeps the flat model). Use
	// fabric.GridSpec for the canonical hosts × switches × devices
	// layout.
	Topology string
	// Placement selects the replica placement policy: "hash" (default,
	// pure consistent-hash ring) or "locality" (switch-spread,
	// path-cost-reweighted ring). Any other value is an error from
	// RunWorkload and NewSystem, as an unparseable Topology is.
	Placement string
}

// DefaultConfig returns a two-node platform matching the paper's
// testbed, with capacities sized for affordable simulation.
func DefaultConfig() Config {
	p := params.Default()
	return Config{
		Nodes:       2,
		NodeDRAM:    6 << 30,
		CXLCapacity: 8 << 30,
		CXLLatency:  time.Duration(p.CXLLatency),
		Cores:       p.CoresPerNode,
		Seed:        1,
	}
}

func (c Config) params() params.Params {
	p := params.Default()
	if c.NodeDRAM > 0 {
		p.NodeDRAMBytes = c.NodeDRAM
	}
	if c.CXLCapacity > 0 {
		p.CXLBytes = c.CXLCapacity
	}
	if c.CXLLatency > 0 {
		p.CXLLatency = des.Time(c.CXLLatency)
	}
	if c.Cores > 0 {
		p.CoresPerNode = c.Cores
	}
	if c.CheckpointLanes > 0 {
		p.CheckpointLanes = c.CheckpointLanes
	}
	if c.RestoreLanes > 0 {
		p.RestoreLanes = c.RestoreLanes
	}
	if c.Trace {
		p.TraceEnabled = true
	}
	if c.Capacity.EvictPolicy != "" {
		p.EvictPolicy = c.Capacity.EvictPolicy
	}
	if c.Capacity.HighWatermark > 0 {
		p.CXLHighWatermark = c.Capacity.HighWatermark
	}
	if c.Capacity.LowWatermark > 0 {
		p.CXLLowWatermark = c.Capacity.LowWatermark
	}
	if c.Capacity.ReclaimPeriod > 0 {
		p.CXLReclaimPeriod = des.Time(c.Capacity.ReclaimPeriod)
	}
	if c.Replication.Devices > 0 {
		p.CXLDevices = c.Replication.Devices
	}
	if c.Replication.Factor > 0 {
		p.ReplicationFactor = c.Replication.Factor
	}
	if c.Replication.RepairPeriod > 0 {
		p.RepairPeriod = des.Time(c.Replication.RepairPeriod)
	}
	if c.Replication.RetryBudget > 0 {
		p.RestoreRetryBudget = c.Replication.RetryBudget
	}
	if c.Fabric.Topology != "" {
		p.Topology = c.Fabric.Topology
	}
	if c.Fabric.Placement != "" {
		p.PlacementPolicy = c.Fabric.Placement
	}
	if c.Telemetry.Enabled {
		p.TelemetryEnabled = true
	}
	if c.Telemetry.SampleEvery > 0 {
		p.SampleEvery = des.Time(c.Telemetry.SampleEvery)
	}
	if c.Telemetry.SeriesCap > 0 {
		p.TelemetrySeriesCap = c.Telemetry.SeriesCap
	}
	if c.Telemetry.SLOOccupancy > 0 {
		p.SLOOccupancy = c.Telemetry.SLOOccupancy
		p.SLODriveReclaim = c.Telemetry.SLODrive
	}
	if c.Telemetry.SLOColdStartP99 > 0 {
		p.SLOColdStartP99 = des.Time(c.Telemetry.SLOColdStartP99)
	}
	if c.Workers > 1 {
		p.SimWorkers = c.Workers
	}
	if c.XRay {
		p.XRayEnabled = true
	}
	return p
}

// MechanismKind selects a remote-fork implementation.
type MechanismKind int

// Remote-fork mechanisms.
const (
	// CXLfork is the paper's contribution: zero-copy, zero-serialization
	// remote fork over shared CXL memory.
	CXLfork MechanismKind = iota
	// CRIUCXL is the state-of-practice baseline: serialized image files
	// on an in-CXL-memory filesystem.
	CRIUCXL
	// MitosisCXL is the state-of-the-art baseline: parent-coupled shadow
	// checkpoint with lazy remote paging over CXL.
	MitosisCXL
)

func (m MechanismKind) String() string {
	switch m {
	case CRIUCXL:
		return "CRIU-CXL"
	case MitosisCXL:
		return "Mitosis-CXL"
	default:
		return "CXLfork"
	}
}

// TieringPolicy controls where restored state lives (paper §4.3).
type TieringPolicy int

// Tiering policies (CXLfork restores only).
const (
	// MigrateOnWrite shares read-only state from CXL and copies pages
	// locally only on stores (default).
	MigrateOnWrite TieringPolicy = iota
	// MigrateOnAccess copies every touched page to local memory.
	MigrateOnAccess
	// HybridTiering copies pages whose checkpointed Accessed (or
	// user-declared hot) bit is set; cold pages stay on CXL.
	HybridTiering
)

func (t TieringPolicy) String() string { return rfork.Policy(t).String() }

// RestoreOptions tunes a restore.
type RestoreOptions struct {
	// Policy selects the tiering policy (CXLfork only).
	Policy TieringPolicy
	// DisableDirtyPrefetch turns off the opportunistic copy of
	// checkpoint-dirty pages (ablation).
	DisableDirtyPrefetch bool
	// NaivePageTables copies checkpointed page-table leaves instead of
	// attaching them (ablation).
	NaivePageTables bool
	// SyncHotPrefetch prefetches hot pages synchronously during restore
	// under hybrid tiering (the design the paper rejects; ablation).
	SyncHotPrefetch bool
}

func (o RestoreOptions) internal() rfork.Options {
	return rfork.Options{
		Policy:          rfork.Policy(o.Policy),
		NoDirtyPrefetch: o.DisableDirtyPrefetch,
		NaivePTCopy:     o.NaivePageTables,
		SyncHotPrefetch: o.SyncHotPrefetch,
	}
}

// System is a simulated CXL-interconnected cluster.
//
// A System is not safe for concurrent use: the simulation is
// single-threaded and advances one shared virtual clock. Concurrency in
// experiments (e.g. the autoscaler) is expressed through the event
// queue, not goroutines.
type System struct {
	c    *cluster.Cluster
	rng  *rand.Rand
	mech map[MechanismKind]rfork.Mechanism
	reg  map[string]bool // functions with registered+warmed images
}

// NewSystem boots a cluster. An unparseable Fabric.Topology or an
// unknown Fabric.Placement is an error, as it is from RunWorkload.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	c, err := cluster.New(cfg.params(), cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("cxlfork: %w", err)
	}
	c.Faults.Reseed(cfg.Seed)
	// DeviceLoss rules are clock-driven: arm them now so rules injected
	// at any point fire at their At offset and kill the pool device.
	c.Faults.ArmDeviceLoss(func(dev int) { c.Pool.Fail(dev) })
	coreMech := core.New(c.Dev)
	coreMech.Faults = c.Faults
	criuMech := criu.New(c.CXLFS)
	criuMech.Faults = c.Faults
	mitMech := mitosis.New()
	mitMech.Faults = c.Faults
	return &System{
		c:   c,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		mech: map[MechanismKind]rfork.Mechanism{
			CXLfork:    coreMech,
			CRIUCXL:    criuMech,
			MitosisCXL: mitMech,
		},
		reg: make(map[string]bool),
	}, nil
}

// checkNode validates a node index against the cluster size.
func (s *System) checkNode(node int) error {
	if node < 0 || node >= len(s.c.Nodes) {
		return fmt.Errorf("cxlfork: node %d out of range [0,%d)", node, len(s.c.Nodes))
	}
	return nil
}

// Now returns the virtual clock.
func (s *System) Now() time.Duration { return time.Duration(s.c.Eng.Now()) }

// Sleep idles the cluster for d of virtual time, firing any events
// scheduled inside the window — in particular pending DeviceLoss
// faults, which are clock-driven rather than step-matched.
func (s *System) Sleep(d time.Duration) {
	s.c.Eng.RunUntil(s.c.Eng.Now() + des.Time(d))
}

// Nodes returns the node count.
func (s *System) Nodes() int { return len(s.c.Nodes) }

// NodeMemoryUsed returns node i's local DRAM usage in bytes.
func (s *System) NodeMemoryUsed(node int) int64 {
	return s.c.Node(node).Mem.UsedBytes()
}

// CXLMemoryUsed returns the shared pool occupancy in bytes (healthy
// devices only; identical to the single device's occupancy when
// Replication.Devices is unset).
func (s *System) CXLMemoryUsed() int64 { return s.c.Pool.UsedBytes() }

// Devices returns the CXL pool size (1 unless Replication.Devices).
func (s *System) Devices() int { return s.c.Pool.N() }

// checkDevice validates a pool device index.
func (s *System) checkDevice(dev int) error {
	if dev < 0 || dev >= s.c.Pool.N() {
		return fmt.Errorf("cxlfork: device %d out of range [0,%d)", dev, s.c.Pool.N())
	}
	return nil
}

// FailDevice permanently kills pool device dev right now — the manual
// counterpart of a DeviceLoss fault rule. Every arena and frame on the
// device becomes unrecoverable; later allocations against it return
// ErrDeviceFailed. There is no revive: expander loss is terminal
// (DESIGN.md §12).
func (s *System) FailDevice(dev int) error {
	if err := s.checkDevice(dev); err != nil {
		return err
	}
	s.c.Pool.Fail(dev)
	return nil
}

// DeviceFailed reports whether pool device dev has been killed by a
// DeviceLoss fault or FailDevice.
func (s *System) DeviceFailed(dev int) bool {
	return dev >= 0 && dev < s.c.Pool.N() && s.c.Pool.Failed(dev)
}

// FunctionNames lists the built-in workload suite (Table 1).
func FunctionNames() []string {
	var out []string
	for _, sp := range faas.Suite() {
		out = append(out, sp.Name)
	}
	return out
}

// Function is a live function instance on some node.
type Function struct {
	sys  *System
	in   *faas.Instance
	node int
}

// ensureImage registers the function's image files and pre-pulls them on
// every node (done once per function).
func (s *System) ensureImage(spec faas.Spec) error {
	if s.reg[spec.Name] {
		return nil
	}
	faas.RegisterFiles(s.c.FS, s.c.P, spec)
	for _, n := range s.c.Nodes {
		if err := faas.WarmLibraries(n, spec); err != nil {
			return err
		}
	}
	s.reg[spec.Name] = true
	return nil
}

// DeployFunction cold-starts one of the built-in functions on a node:
// the address space is created and state initialization runs in full.
func (s *System) DeployFunction(node int, name string) (*Function, error) {
	if err := s.checkNode(node); err != nil {
		return nil, err
	}
	spec, ok := faas.ByName(name)
	if !ok {
		return nil, fmt.Errorf("cxlfork: unknown function %q (see FunctionNames)", name)
	}
	if err := s.ensureImage(spec); err != nil {
		return nil, err
	}
	in, err := faas.NewInstance(s.c.Node(node), spec)
	if err != nil {
		return nil, err
	}
	if err := in.ColdInit(); err != nil {
		in.Exit()
		return nil, err
	}
	return &Function{sys: s, in: in, node: node}, nil
}

// Name returns the function name.
func (f *Function) Name() string { return f.in.Spec.Name }

// Node returns the hosting node index.
func (f *Function) Node() int { return f.node }

// Invoke runs one invocation and returns its virtual duration.
func (f *Function) Invoke() (time.Duration, error) {
	d, err := f.in.Invoke(f.sys.rng)
	return time.Duration(d), err
}

// Warmup runs n invocations (the paper checkpoints after the 16th so
// JIT-style initialization has settled, §5), clearing the A/D bits after
// the first so a subsequent checkpoint captures the steady-state access
// pattern rather than initialization.
func (f *Function) Warmup(n int) error {
	return f.in.PrepareParent(n, f.sys.rng)
}

// ResidentLocalBytes returns the instance's node-local resident memory.
func (f *Function) ResidentLocalBytes() int64 {
	return int64(f.in.Task.MM.ResidentLocalPages()) * int64(f.sys.c.P.PageSize)
}

// ResidentCXLBytes returns bytes the instance maps directly from CXL.
func (f *Function) ResidentCXLBytes() int64 {
	return int64(f.in.Task.MM.ResidentCXLPages()) * int64(f.sys.c.P.PageSize)
}

// FaultCounts returns the instance's page-fault breakdown by kind.
func (f *Function) FaultCounts() map[string]int64 {
	out := make(map[string]int64)
	st := &f.in.Task.MM.Stats.Faults
	for _, k := range []kernel.FaultKind{
		kernel.FaultAnon, kernel.FaultFileMinor, kernel.FaultFileMajor,
		kernel.FaultCoWLocal, kernel.FaultCoWCXL, kernel.FaultMoA,
		kernel.FaultCXLDirect, kernel.FaultMaterialize, kernel.FaultPrefetch,
	} {
		if n := st.Count(k); n != 0 {
			out[k.String()] = n
		}
	}
	return out
}

// Exit tears the instance down, freeing its local memory.
func (f *Function) Exit() { f.in.Exit() }

// AddressSpace renders the instance's VMA layout, one mapping per line
// (start-end, permissions, backing, name).
func (f *Function) AddressSpace() []string {
	var out []string
	f.in.Task.MM.VMAs.Walk(func(v vma.VMA) {
		out = append(out, v.String())
	})
	return out
}

// Descriptors renders the instance's open descriptor table.
func (f *Function) Descriptors() []string {
	var out []string
	for _, fd := range f.in.Task.FDs.All() {
		out = append(out, fmt.Sprintf("fd %-3d %-6s %s", fd.Num, fd.Kind, fd.Path))
	}
	return out
}

// Fork clones the function locally with plain fork() semantics
// (copy-on-write sharing with the parent on the same node).
func (f *Function) Fork() (*Function, error) {
	child, err := f.sys.c.Node(f.node).Fork(f.in.Task, f.Name()+"-child")
	if err != nil {
		return nil, err
	}
	return &Function{sys: f.sys, in: faas.Adopt(child, f.in.Spec), node: f.node}, nil
}

// Checkpoint is a mechanism-specific process checkpoint.
type Checkpoint struct {
	sys  *System
	img  rfork.Image
	spec faas.Spec
	kind MechanismKind
}

// Checkpoint captures a function's state with the chosen mechanism.
func (s *System) Checkpoint(f *Function, mech MechanismKind, id string) (*Checkpoint, error) {
	m, ok := s.mech[mech]
	if !ok {
		return nil, fmt.Errorf("cxlfork: unknown mechanism %v", mech)
	}
	img, err := m.Checkpoint(f.in.Task, id)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{sys: s, img: img, spec: f.in.Spec, kind: mech}, nil
}

// ID returns the checkpoint ID.
func (c *Checkpoint) ID() string { return c.img.ID() }

// Mechanism returns the creating mechanism.
func (c *Checkpoint) Mechanism() MechanismKind { return c.kind }

// CXLBytes returns device capacity the checkpoint holds.
func (c *Checkpoint) CXLBytes() int64 { return c.img.CXLBytes() }

// ParentLocalBytes returns parent-node local memory the checkpoint pins
// (non-zero only for Mitosis-CXL, whose design couples the image to the
// parent node, §3.1).
func (c *Checkpoint) ParentLocalBytes() int64 { return c.img.LocalBytes() }

// Pages returns the number of checkpointed data pages.
func (c *Checkpoint) Pages() int { return c.img.Pages() }

// Release drops the caller's reference; storage is reclaimed when the
// last clone exits.
func (c *Checkpoint) Release() { c.img.Release() }

// ClearAccessBits clears the checkpoint's Accessed bits in place — the
// interface CXLporter uses to re-estimate hot pages (CXLfork only).
func (c *Checkpoint) ClearAccessBits() (int, error) {
	ck, ok := c.img.(*core.Checkpoint)
	if !ok {
		return 0, fmt.Errorf("cxlfork: %v checkpoints have no A-bit interface", c.kind)
	}
	return ck.ClearABits(), nil
}

// Info describes a checkpoint's layout.
type Info struct {
	ID              string
	Mechanism       string
	DataPages       int
	DirtyPages      int
	FilePages       int
	VMAs            int
	PageTableLeaves int
	VMALeaves       int
	CXLBytes        int64
	ParentBytes     int64
	Refs            int
}

// Describe returns the checkpoint's layout details (richest for CXLfork
// checkpoints, whose OS structures live rebased on the device).
func (c *Checkpoint) Describe() Info {
	info := Info{
		ID:          c.img.ID(),
		Mechanism:   c.img.Mechanism(),
		DataPages:   c.img.Pages(),
		CXLBytes:    c.img.CXLBytes(),
		ParentBytes: c.img.LocalBytes(),
		Refs:        c.img.Refs(),
	}
	if ck, ok := c.img.(*core.Checkpoint); ok {
		info.DirtyPages = ck.DirtyPages()
		info.FilePages = ck.FilePages()
		info.VMAs = ck.VMACount()
		info.PageTableLeaves = ck.PTLeaves()
		info.VMALeaves = ck.VMALeaves()
	}
	return info
}

// Restore clones the checkpointed function into a fresh process on the
// given node and returns it ready to invoke.
func (s *System) Restore(node int, c *Checkpoint, opts RestoreOptions) (*Function, error) {
	if err := s.checkNode(node); err != nil {
		return nil, err
	}
	if err := s.ensureImage(c.spec); err != nil {
		return nil, err
	}
	child := s.c.Node(node).NewTask(c.spec.Name + "-clone")
	if err := s.mech[c.kind].Restore(child, c.img, opts.internal()); err != nil {
		s.c.Node(node).Exit(child)
		return nil, err
	}
	return &Function{sys: s, in: faas.Adopt(child, c.spec), node: node}, nil
}

// FaultKind selects an injectable fault class.
type FaultKind = faultinject.Kind

// Injectable fault kinds.
const (
	// CrashNode kills the node executing the matched step; it stays down
	// until ReviveNode.
	CrashNode = faultinject.CrashNode
	// DeviceFull fails the matched step with ErrDeviceFull once, without
	// the device actually being full.
	DeviceFull = faultinject.DeviceFull
	// FabricDegrade multiplies CXL transfer latencies by Factor for a
	// Window of virtual time.
	FabricDegrade = faultinject.FabricDegrade
	// CorruptBlob flips one seeded-random bit in the matched
	// checkpoint's serialized state.
	CorruptBlob = faultinject.CorruptBlob
	// DeviceLoss permanently fails pool device Rule.Device at virtual
	// offset Rule.At — clock-driven, not step-matched. Checkpoint
	// replicas on surviving devices stay restorable (DESIGN.md §12).
	DeviceLoss = faultinject.DeviceLoss
)

// Step boundaries a FaultRule can match (empty Step matches any).
const (
	StepCheckpointVMA    = faultinject.StepCheckpointVMA
	StepCheckpointPT     = faultinject.StepCheckpointPT
	StepCheckpointGlobal = faultinject.StepCheckpointGlobal
	StepRestoreAttach    = faultinject.StepRestoreAttach
	StepPorterRestore    = faultinject.StepPorterRestore
)

// AnyNode is the wildcard for FaultRule.Node.
const AnyNode = faultinject.AnyNode

// FaultRule describes one injectable fault; see the field docs on
// faultinject.Rule. Rules fire deterministically by occurrence count,
// except DeviceLoss rules, which fire on the virtual clock at offset
// Rule.At from injection.
type FaultRule = faultinject.Rule

// InjectFault registers a fault rule on the system's plan. Faults fire
// at step boundaries during Checkpoint/Restore (DeviceLoss: on the
// virtual clock) and replay identically under the same Config.Seed.
func (s *System) InjectFault(r FaultRule) { s.c.Faults.Inject(r) }

// RecoverStats reports what a RecoverDevice pass reclaimed.
type RecoverStats = cxl.RecoverStats

// RecoverDevice garbage-collects torn (unsealed) checkpoint arenas left
// on the CXL device by nodes that crashed mid-checkpoint, reclaiming
// their frames and metadata.
func (s *System) RecoverDevice() RecoverStats {
	st := s.c.Dev.Recover()
	s.c.Faults.Counters.RecoveredBytes.Add(st.Total())
	return st
}

// NodeIsDown reports whether a node has been crashed by a fault.
func (s *System) NodeIsDown(node int) bool { return s.c.Faults.NodeDown(node) }

// ReviveNode brings a crashed node back. Its tasks are gone; sealed
// checkpoints on the shared device remain usable.
func (s *System) ReviveNode(node int) { s.c.Faults.Revive(node) }

// DegradeFabric opens a fabric-degradation window immediately: CXL
// transfer costs are multiplied by factor until window has elapsed on
// the virtual clock.
func (s *System) DegradeFabric(factor float64, window time.Duration) {
	s.c.Faults.Degrade(factor, des.Time(window))
}

// FaultStats summarizes fault activity and recovery work so far.
type FaultStats struct {
	// Injected is the number of faults fired by injection rules.
	Injected int64
	// Retries counts operations re-attempted after a fault.
	Retries int64
	// Fallbacks counts degradations to a slower path (e.g. cold start).
	Fallbacks int64
	// RecoveredBytes counts bytes reclaimed from torn checkpoints.
	RecoveredBytes int64
}

// FaultStats returns the system's fault counters.
func (s *System) FaultStats() FaultStats {
	c := &s.c.Faults.Counters
	return FaultStats{
		Injected:       c.Injected.Value(),
		Retries:        c.Retries.Value(),
		Fallbacks:      c.Fallbacks.Value(),
		RecoveredBytes: c.RecoveredBytes.Value(),
	}
}

// DedupStats summarizes the CXL device's content-addressed frame dedup
// cache: checkpoint page writes satisfied by an existing identical
// frame (Hits) vs. fresh copies (Misses), and the fabric write bytes
// hits elided. Repeated checkpoints of the same function dedup almost
// entirely against the first image.
type DedupStats struct {
	Hits       int64
	Misses     int64
	BytesSaved int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no lookups.
func (d DedupStats) HitRate() float64 {
	total := d.Hits + d.Misses
	if total == 0 {
		return 0
	}
	return float64(d.Hits) / float64(total)
}

// DedupStats returns the device's frame-dedup counters.
func (s *System) DedupStats() DedupStats {
	c := &s.c.Dev.Dedup
	return DedupStats{
		Hits:       c.Hits.Value(),
		Misses:     c.Misses.Value(),
		BytesSaved: c.BytesSaved.Value(),
	}
}

// CapacityStats is a point-in-time breakdown of shared-device occupancy
// by what eviction could actually get back. Because checkpoint frames
// are dedup-shared across images, an image's declared footprint is not
// what releasing it frees; this split is computed from frame refcounts.
type CapacityStats struct {
	// UsedBytes is total device occupancy (frames + metadata).
	UsedBytes int64
	// CapacityBytes is the device size (Config.CXLCapacity).
	CapacityBytes int64
	// Checkpoints is the number of live checkpoint arenas.
	Checkpoints int
	// MetaBytes is checkpointed OS-structure bytes (page-table leaves,
	// VMA leaves, globals) — always exclusive to one image.
	MetaBytes int64
	// ExclusiveBytes is data-frame bytes referenced by exactly one
	// image: the capacity evicting the owners would free.
	ExclusiveBytes int64
	// SharedBytes is data-frame bytes dedup-shared by several images,
	// each distinct frame counted once; eviction of a single owner
	// frees none of it.
	SharedBytes int64
}

// Utilization returns UsedBytes / CapacityBytes.
func (c CapacityStats) Utilization() float64 {
	if c.CapacityBytes == 0 {
		return 0
	}
	return float64(c.UsedBytes) / float64(c.CapacityBytes)
}

// CapacityStats returns the device's occupancy breakdown: how much of
// the used capacity is exclusive to single checkpoints (reclaimable by
// eviction) versus dedup-shared across them.
func (s *System) CapacityStats() CapacityStats {
	o := s.c.Dev.Occupancy()
	return CapacityStats{
		UsedBytes:      s.c.Dev.UsedBytes(),
		CapacityBytes:  s.c.Dev.CapacityBytes(),
		Checkpoints:    o.Arenas,
		MetaBytes:      o.Meta,
		ExclusiveBytes: o.ExclusiveFrames,
		SharedBytes:    o.SharedFrames,
	}
}

// TraceEnabled reports whether the system records a virtual-time trace
// (Config.Trace).
func (s *System) TraceEnabled() bool { return s.c.Trace.Enabled() }

// TraceEventCount returns the number of recorded trace spans.
func (s *System) TraceEventCount() int { return s.c.Trace.Len() }

// TraceDropped returns how many spans the bounded trace buffer
// rejected (0 unless the scenario outgrew its 2^18 spans).
func (s *System) TraceDropped() int64 { return s.c.Trace.Dropped() }

// WriteTrace writes the recorded trace as Chrome trace_event JSON,
// viewable in Perfetto (ui.perfetto.dev) or chrome://tracing. Under the
// same Config and operation sequence the output is byte-identical.
func (s *System) WriteTrace(w io.Writer) error {
	if !s.c.Trace.Enabled() {
		return fmt.Errorf("cxlfork: tracing disabled (set Config.Trace)")
	}
	return s.c.Trace.WriteChrome(w)
}

// WriteTraceCritical is WriteTrace with each root operation's critical
// path marked ("critical":1 in the span's args): the deepest chain of
// child spans that set the operation's end-to-end latency
// (DESIGN.md §16). Readers unaware of the key parse the file exactly
// as WriteTrace's.
func (s *System) WriteTraceCritical(w io.Writer) error {
	if !s.c.Trace.Enabled() {
		return fmt.Errorf("cxlfork: tracing disabled (set Config.Trace)")
	}
	return s.c.Trace.WriteChromeCritical(w)
}

// PhaseLatency is one phase's latency distribution, derived from the
// recorded spans. Phase names are "cat/name" (e.g.
// "phase/struct-copy", "op/checkpoint", "fault/cow-cxl").
type PhaseLatency struct {
	Phase string
	Count int
	Total time.Duration
	Mean  time.Duration
	P99   time.Duration
	Max   time.Duration
}

// TracePhases returns the trace's per-phase latency summaries, sorted
// by phase name. Nil when tracing is disabled.
func (s *System) TracePhases() []PhaseLatency {
	var out []PhaseLatency
	for _, ph := range trace.Phases(s.c.Trace.Events()) {
		r := ph.Latency
		out = append(out, PhaseLatency{
			Phase: ph.Name,
			Count: r.Count(),
			Total: time.Duration(r.Sum()),
			Mean:  time.Duration(r.Mean()),
			P99:   time.Duration(r.P99()),
			Max:   time.Duration(r.Max()),
		})
	}
	return out
}

// XRayEnabled reports whether the system runs critical-path latency
// attribution (Config.XRay).
func (s *System) XRayEnabled() bool { return s.c.XRay.Enabled() }

// XRayReport builds a critical-path attribution report from the
// recorded trace: every op span becomes a request whose direct phase
// children are its blame components, with the remainder reported as
// residual (DESIGN.md §16). Requires both Config.XRay and Config.Trace;
// workload runs driven by RunWorkload instead get the porter's exact
// per-request decomposition on RunReport.XRay.
func (s *System) XRayReport() (*xray.Report, error) {
	if !s.c.XRay.Enabled() {
		return nil, fmt.Errorf("cxlfork: attribution disabled (set Config.XRay)")
	}
	if !s.c.Trace.Enabled() {
		return nil, fmt.Errorf("cxlfork: attribution over ops needs a trace (set Config.Trace)")
	}
	return xray.FromSpans(s.c.Trace.Events(), 0), nil
}

// MetricsFormat selects a telemetry export encoding for WriteMetrics.
type MetricsFormat string

// Supported telemetry export formats: Prometheus text exposition,
// OpenMetrics, and CSV/JSON timeline dumps.
const (
	MetricsPrometheus  MetricsFormat = "prometheus"
	MetricsOpenMetrics MetricsFormat = "openmetrics"
	MetricsCSV         MetricsFormat = "csv"
	MetricsJSON        MetricsFormat = "json"
)

// TelemetryEnabled reports whether the system samples telemetry
// (Config.Telemetry.Enabled).
func (s *System) TelemetryEnabled() bool { return s.c.Telem.Enabled() }

// Snapshot samples every registered telemetry series at the current
// virtual instant — the facade's on-demand tick for scenarios that are
// not driven by the autoscaler's sampling loop. It errors when
// telemetry is disabled.
func (s *System) Snapshot() error {
	if !s.c.Telem.Enabled() {
		return fmt.Errorf("cxlfork: telemetry disabled (set Config.Telemetry.Enabled)")
	}
	s.c.Telem.Sample(s.c.Eng.Now())
	return nil
}

// TelemetrySamples returns how many sample ticks have run.
func (s *System) TelemetrySamples() int64 { return s.c.Telem.Ticks() }

// TelemetryDropped returns how many samples the bounded series rings
// overwrote (0 unless a run outgrew Config.Telemetry.SeriesCap).
func (s *System) TelemetryDropped() int64 { return s.c.Telem.Dropped() }

// WriteMetrics writes the sampled telemetry in the given format; see
// MetricsFormat for the encodings. It errors when telemetry is
// disabled or the format is unknown.
func (s *System) WriteMetrics(w io.Writer, format MetricsFormat) error {
	if !s.c.Telem.Enabled() {
		return fmt.Errorf("cxlfork: telemetry disabled (set Config.Telemetry.Enabled)")
	}
	switch format {
	case MetricsPrometheus:
		return s.c.Telem.WritePrometheus(w)
	case MetricsOpenMetrics:
		return s.c.Telem.WriteOpenMetrics(w)
	case MetricsCSV:
		return s.c.Telem.WriteCSV(w)
	case MetricsJSON:
		return s.c.Telem.WriteJSON(w)
	}
	return fmt.Errorf("cxlfork: unknown metrics format %q", format)
}
