package params

import "cxlfork/internal/des"

// Params holds the parts of the cost model that callers vary: platform
// capacities, the latencies Fig. 9 sweeps, lanes, capacity management,
// replication, fabric, observers and the worker count. Every other cost
// is a constant below.
type Params struct {
	// ---- Platform geometry (paper §6.1) ----

	// PageSize is the base page size in bytes.
	PageSize int
	// LLCBytes is the per-node last-level cache capacity (64 MB L3 on
	// Sapphire Rapids).
	LLCBytes int64
	// NodeDRAMBytes is the per-node local DRAM capacity (128 GB per
	// socket in the paper; experiments shrink it for Fig. 10c).
	NodeDRAMBytes int64
	// CXLBytes is the capacity of the shared CXL device (16 GB DDR4 DIMM
	// behind the Agilex FPGA).
	CXLBytes int64
	// CoresPerNode is the number of CPU cores available to run function
	// instances on each node.
	CoresPerNode int

	// ---- Memory access latencies (round trip, paper §6.1 / Fig. 9) ----

	// CXLLatency is the round-trip latency to CXL memory (391 ns
	// measured on the paper's FPGA prototype; swept 100–400 ns in
	// Fig. 9).
	CXLLatency des.Time

	// ---- Copy bandwidth-derived per-page costs ----

	// CXLWritePage is the cost of one NT-store page copy into CXL
	// memory (CXLfork checkpoint; §8). Calibrated so CXLfork
	// checkpointing is ~1.5x slower than Mitosis' local checkpoint
	// (§7.1 "Checkpoint Performance").
	CXLWritePage des.Time
	// CXLReadPage is the data-movement cost of copying one page from
	// CXL to local DRAM (1.3 µs measured in §4.2.1).
	CXLReadPage des.Time

	// ---- Parallel copy lanes ----

	// CheckpointLanes is the number of worker lanes checkpoint pipelines
	// shard across (per-VMA / per-page-table-leaf). 1 means the original
	// sequential path with identical accounting.
	CheckpointLanes int
	// RestoreLanes is the number of worker lanes restore pipelines shard
	// across.
	RestoreLanes int

	// ---- Tracing ----

	// TraceEnabled turns on the virtual-time span tracer: every
	// checkpoint/restore/fork/fault step records nested spans stamped
	// with virtual time. Tracing is purely observational — it never
	// advances a clock — so enabling it changes no simulated result.
	TraceEnabled bool

	// ---- Serverless platform (paper §5 / Fig. 6) ----

	// KeepAlive is the default keep-alive window for idle instances.
	KeepAlive des.Time
	// CheckpointAfter is the invocation count after which CXLporter
	// checkpoints a function (16, §5).
	CheckpointAfter int

	// ---- CXL capacity management (§5, §8 discussion) ----

	// EvictPolicy selects the checkpoint eviction policy the capacity
	// manager runs when the shared device crosses its high watermark:
	// "lru" (least recently restored first), "largest" (largest
	// reclaimable footprint first), or "costbenefit" (lowest expected
	// restore-latency-saved per resident byte first, the default).
	EvictPolicy string
	// CXLHighWatermark is the device occupancy fraction above which the
	// capacity manager starts evicting checkpoints.
	CXLHighWatermark float64
	// CXLLowWatermark is the occupancy fraction eviction drives the
	// device back down to once triggered.
	CXLLowWatermark float64
	// CXLReclaimPeriod is how often the background reclaim pass re-checks
	// device occupancy on the virtual clock while a trace replays.
	CXLReclaimPeriod des.Time

	// ---- Replication and failover (DESIGN.md §12) ----

	// CXLDevices is the number of devices in the fabric-attached pool.
	// The total CXLBytes capacity is split evenly across them. 1 keeps
	// the original single-device model byte-for-byte.
	CXLDevices int
	// ReplicationFactor is the number of devices each sealed checkpoint
	// is placed on (K). Clamped to the device count; 1 disables
	// replication.
	ReplicationFactor int
	// RepairPeriod is the anti-entropy loop's virtual-time tick: each
	// tick re-replicates under-replicated images within the bandwidth
	// budget below.
	RepairPeriod des.Time
	// RepairBandwidthPages caps how many pages one repair tick may copy,
	// modeling the fabric bandwidth reserved for background repair.
	RepairBandwidthPages int
	// RestoreRetryBudget is the per-request retry budget across replica
	// failovers and node-down retries; exhausting it degrades the
	// request to a scratch cold start and counts retry_exhausted.
	RestoreRetryBudget int

	// ---- Fabric topology (DESIGN.md §14) ----

	// Topology, when non-empty, is a fabric topology spec (the
	// internal/fabric line DSL: host/switch/device/link declarations).
	// The cluster builds it, places the device pool on it (the spec's
	// device count overrides CXLDevices), and — unless the topology is
	// trivial (one switch, one device, default links) — charges
	// per-link path latency and stream contention on every restore.
	// Empty keeps the flat single-hop model byte-for-byte.
	Topology string
	// PlacementPolicy selects how replica placement orders the device
	// pool: "hash" (default; pure consistent-hash ring walk) or
	// "locality" (ring walk reweighted to spread replicas across
	// switches and prefer low mean path cost, DESIGN.md §14). Ignored
	// without a Topology; any other value fails cluster construction.
	PlacementPolicy string

	// ---- Telemetry and SLOs (DESIGN.md §11) ----

	// TelemetryEnabled turns on the virtual-time metric sampler: every
	// layer registers gauges/counters against a shared registry that is
	// probed on a fixed virtual-time tick. Sampling is read-only and
	// never perturbs a run; disabled, it is zero-overhead (nil-receiver
	// pattern, same as tracing).
	TelemetryEnabled bool
	// SampleEvery is the virtual-time period between sample ticks.
	SampleEvery des.Time
	// TelemetrySeriesCap bounds each series' sample ring; once full the
	// oldest sample is overwritten and the series' drop counter is
	// incremented.
	TelemetrySeriesCap int
	// SLOOccupancy, when non-zero, declares a device-occupancy
	// objective: the utilization fraction samples should stay at or
	// below. Violations are charged against SLOBudget.
	SLOOccupancy float64
	// SLOColdStartP99, when non-zero, declares a cold-start tail
	// objective: the running cold P99 should stay at or below this.
	SLOColdStartP99 des.Time
	// SLODriveReclaim lets a firing occupancy alert drive the capacity
	// manager: trigger an early reclaim pass toward the low watermark
	// and tighten checkpoint admission to it while the alert is active.
	SLODriveReclaim bool

	// ---- Critical-path attribution (DESIGN.md §16) ----

	// XRayEnabled turns on the critical-path latency attribution
	// engine: the porter decomposes every completed request's latency
	// into named blame components (queueing, failover, fabric transit,
	// restore service, execution), the fabric contention model reports
	// per-link heat, and the run exposes a deterministic blame report.
	// Attribution is purely observational — it never advances a clock
	// or draws randomness — so enabling it changes no simulated result;
	// disabled (the default) it is zero-overhead (nil-receiver pattern,
	// same as tracing and telemetry).
	XRayEnabled bool

	// ---- Simulation engine (DESIGN.md §13) ----

	// SimWorkers is the simulation's worker count. At 1 (the default)
	// everything runs sequentially. Above 1, independent simulation
	// legs (per-function calibration, sweep points, design grids) fan
	// out to a des.Pool, each leg on its own event queue; one porter
	// replay is always one engine. Results are byte-identical at any
	// worker count; workers only change wall-clock time.
	SimWorkers int
}

// The cost-model values no caller varies.
const (
	// ---- Platform geometry (paper §6.1) ----

	// CacheLineSize in bytes.
	CacheLineSize int = 64

	// ---- Memory access latencies (round trip, paper §6.1) ----

	// LLCHit is the latency of a last-level-cache hit.
	LLCHit = 20 * des.Nanosecond
	// LocalMemLatency is the round-trip latency of node-local DRAM
	// (~100 ns; Fig. 9 calls 100 ns "close to the round trip to our
	// local memory").
	LocalMemLatency = 100 * des.Nanosecond

	// ---- Copy bandwidth-derived per-page costs ----

	// LocalCopyPage is the cost of copying one page DRAM→DRAM (Mitosis
	// checkpoints into local memory at this rate).
	LocalCopyPage = 340 * des.Nanosecond

	// ---- Page fault costs (paper §4.2.1) ----

	// AnonFault is a regular minor fault allocating a zeroed anonymous
	// page from local memory ("less than 1 µs").
	AnonFault = 900 * des.Nanosecond
	// FaultEntry is the fixed trap/handler overhead of any fault that
	// involves a page copy; the CoW-CXL total of 2.5 µs decomposes as
	// FaultEntry + CXLReadPage + TLBShootdown.
	FaultEntry = 700 * des.Nanosecond
	// TLBShootdown is the TLB-coherence cost when downgrading or
	// replacing a mapped PTE (~500 ns, §4.2.1).
	TLBShootdown = 500 * des.Nanosecond
	// CoWLocalFault is a copy-on-write fault whose source page is
	// already in local DRAM (local fork's write faults).
	CoWLocalFault = 1000 * des.Nanosecond
	// FilePageCacheFault is a minor file fault hitting the local page
	// cache (local fork re-populating library mappings).
	FilePageCacheFault = 1100 * des.Nanosecond
	// FileBackingFault is a major file fault reading from the backing
	// (distributed) filesystem — the cost CXLfork avoids by
	// checkpointing clean private file pages (§4.1).
	FileBackingFault = 8 * des.Microsecond

	// ---- Process / OS structure costs ----

	// PTECopy is the per-entry cost of copying or rewriting one page
	// table entry (local fork's table duplication; Mitosis' page-table
	// deserialization uses PTEDeserialize below).
	PTECopy = 12 * des.Nanosecond
	// PTERebase is the per-entry cost of rewriting a checkpointed PTE
	// to a CXL frame number plus rebasing (CXLfork checkpoint step 7).
	PTERebase = 10 * des.Nanosecond
	// PTEDeserialize is Mitosis' per-entry cost of transferring and
	// decoding one PTE of the parent's page table over the fabric.
	PTEDeserialize = 80 * des.Nanosecond
	// LeafAttach is CXLfork's cost of attaching one checkpointed
	// page-table leaf (512 PTEs) into the child's upper levels.
	LeafAttach = 1 * des.Microsecond
	// UpperTableInit is the cost of allocating and initializing one
	// upper-level page-table node locally.
	UpperTableInit = 500 * des.Nanosecond
	// VMAReconstruct is the cost of fully reconstructing one VMA on
	// restore (CRIU and Mitosis paths).
	VMAReconstruct = 10 * des.Microsecond
	// VMALeafAttach is CXLfork's cost of attaching one checkpointed VMA
	// leaf.
	VMALeafAttach = 300 * des.Nanosecond
	// VMACheckpoint is the per-VMA cost of checkpointing a VMA record.
	VMACheckpoint = 2 * des.Microsecond
	// TaskCreate is the cost of creating the empty child task that
	// calls restore (clone syscall, scheduler linkage).
	TaskCreate = 300 * des.Microsecond
	// ForkVMACopy is local fork's per-VMA duplication cost.
	ForkVMACopy = 1 * des.Microsecond
	// FDReopen is the per-descriptor cost of reopening a file or socket
	// from its serialized path during global-state restore.
	FDReopen = 60 * des.Microsecond
	// FDSerialize is the per-descriptor cost of serializing path and
	// permissions at checkpoint.
	FDSerialize = 5 * des.Microsecond
	// NamespaceRestore is the cost of restoring mount points and PID
	// namespaces from the checkpoint.
	NamespaceRestore = 200 * des.Microsecond
	// StructCopy is the fixed cost of copying the Task and MM
	// descriptors to or from a checkpoint.
	StructCopy = 20 * des.Microsecond

	// ---- Parallel copy lanes and fabric bandwidth ----

	// FabricStreams is how many concurrent full-rate copy streams the
	// CXL fabric admits before lanes contend on bandwidth; matches the
	// parent-uplink stream count the porter's queue model uses.
	FabricStreams int = 6
	// LocalCopyStreams is the DRAM-to-DRAM analogue for Mitosis' local
	// shadow copy (memory-controller limited, wider than the fabric).
	LocalCopyStreams int = 8
	// LaneDispatch is the per-shard work-queue handoff cost, charged
	// only when more than one lane is configured.
	LaneDispatch = 300 * des.Nanosecond
	// DedupHashPage is the cost of hashing one page for the
	// content-addressed frame dedup cache when the copy is elided (on a
	// miss the hash overlaps the NT-store and is not charged).
	DedupHashPage = 250 * des.Nanosecond

	// ---- CRIU image costs (protobuf encode/decode, file I/O on cxlfs) ----

	// CRIUPageSerialize is CRIU's per-page cost to protobuf-encode and
	// write one memory page into an image file.
	CRIUPageSerialize = 4 * des.Microsecond
	// CRIUPageRestore is CRIU's per-page cost to decode one page record,
	// allocate a local frame, copy the contents, and map it.
	CRIUPageRestore = 3 * des.Microsecond
	// CRIURecordEncode / CRIURecordDecode are per-record costs for
	// non-page image records (VMAs, FDs, task metadata).
	CRIURecordEncode = 5 * des.Microsecond
	CRIURecordDecode = 15 * des.Microsecond

	// ---- Serverless platform costs (paper §5 / Fig. 6) ----

	// ContainerCreate is the cost of creating a fresh container:
	// network, namespaces, cgroups (~130 ms, function-independent).
	ContainerCreate = 130 * des.Millisecond
	// GhostContainerTrigger is the cost of signalling an idle ghost
	// container's control socket and having it issue the restore.
	GhostContainerTrigger = 200 * des.Microsecond
	// GhostContainerBytes is the resident footprint of an empty ghost
	// container (512 KB measured in §5).
	GhostContainerBytes int64 = 512 << 10
	// RuntimeColdInit is the function-independent part of cold state
	// initialization (interpreter boot, module import machinery);
	// per-function model/data loading is charged by the function model
	// on top of this.
	RuntimeColdInit = 120 * des.Millisecond
	// KeepAliveShort is the shortened window CXLporter switches to
	// under memory pressure (10 s, §5).
	KeepAliveShort = 10 * des.Second
	// HighMemFraction is the local-memory utilization above which
	// CXLporter stops promoting functions to hybrid tiering (0.90).
	HighMemFraction float64 = 0.90
	// ABitResetPeriod is how often CXLporter clears checkpointed A bits
	// to re-estimate hot pages.
	ABitResetPeriod = 30 * des.Second

	// ---- Replication and failover (DESIGN.md §12) ----

	// RestoreRetryBackoff is the base of the capped exponential backoff
	// charged (in virtual time) before each retry.
	RestoreRetryBackoff = 10 * des.Millisecond
	// RestoreRetryBackoffCap bounds the exponential backoff.
	RestoreRetryBackoffCap = 160 * des.Millisecond
	// ReplicaFailoverTimeout is the virtual-time cost of probing one dead
	// replica before failing over to the next device on the list.
	ReplicaFailoverTimeout = 2 * des.Millisecond

	// ---- SLO burn-rate alerting (DESIGN.md §11) ----

	// SLOBudget is the fraction of window samples allowed to violate
	// an objective before burn-rate alerting engages.
	SLOBudget float64 = 0.1
	// SLOWindowShort and SLOWindowLong are the two sliding windows of
	// the multi-window burn-rate alerts: the long window proves a
	// violation is sustained, the short one that it is still happening.
	SLOWindowShort = 1 * des.Second
	SLOWindowLong  = 5 * des.Second
	// SLOBurnFactor is the burn rate (budget spend multiple) at which
	// an alert fires on both windows.
	SLOBurnFactor float64 = 2
)

// Default returns the calibrated parameter set matching the paper's
// Sapphire Rapids + Agilex-7 testbed.
func Default() Params {
	return Params{
		PageSize:      4096,
		LLCBytes:      64 << 20,
		NodeDRAMBytes: 128 << 30,
		CXLBytes:      16 << 30,
		CoresPerNode:  32,

		CXLLatency: 391 * des.Nanosecond,

		CXLWritePage: 510 * des.Nanosecond,
		CXLReadPage:  1300 * des.Nanosecond,

		CheckpointLanes: 1,
		RestoreLanes:    1,

		TraceEnabled: false,

		KeepAlive:       10 * des.Minute,
		CheckpointAfter: 16,

		EvictPolicy:      "costbenefit",
		CXLHighWatermark: 0.90,
		CXLLowWatermark:  0.75,
		CXLReclaimPeriod: 1 * des.Second,

		CXLDevices:           1,
		ReplicationFactor:    1,
		RepairPeriod:         500 * des.Millisecond,
		RepairBandwidthPages: 4096,
		RestoreRetryBudget:   3,

		TelemetryEnabled:   false,
		SampleEvery:        100 * des.Millisecond,
		TelemetrySeriesCap: 4096,

		SimWorkers: 1,
	}
}

// Pages converts a byte count to a page count, rounding up.
func (p Params) Pages(bytes int64) int {
	ps := int64(p.PageSize)
	return int((bytes + ps - 1) / ps)
}

// Bytes converts a page count to bytes.
func (p Params) Bytes(pages int) int64 { return int64(pages) * int64(p.PageSize) }

// CoWCXLFault is the total cost of a copy-on-write fault whose source is
// a CXL page and which must shoot down a previously-valid read-only
// mapping: trap + copy + TLB coherence (≈2.5 µs with defaults, §4.2.1).
func (p Params) CoWCXLFault() des.Time {
	return FaultEntry + p.CXLReadPage + TLBShootdown
}

// MoAFault is the cost of a migrate-on-access fault: the PTE was absent,
// so there is no shootdown, but the page is copied from CXL.
func (p Params) MoAFault() des.Time {
	return FaultEntry + p.CXLReadPage
}
