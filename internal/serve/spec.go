package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"cxlfork"
	"cxlfork/internal/experiments"
	"cxlfork/internal/fabric"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
	"cxlfork/internal/replica"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("150ms") and unmarshals from either a duration string or a plain
// number of nanoseconds — the wire form every duration field in a Spec
// uses.
type Duration time.Duration

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string ("1.5s") or a number
// of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// Spec is one capacity-planning request: the platform to simulate, the
// workload to replay against it, and how the session should be served.
// Unset fields keep the facade defaults, so the smallest useful spec is
// `{"workload":{"design":"CXLfork"}}`.
type Spec struct {
	// Config describes the simulated platform (the facade Config).
	Config ConfigSpec `json:"config"`
	// Workload describes the replayed arrival trace.
	Workload WorkloadSpec `json:"workload"`
	// Session carries serving options: timeout and live pacing.
	Session SessionSpec `json:"session"`
}

// ConfigSpec is the JSON mirror of cxlfork.Config. Zero values keep the
// simulator defaults (two nodes, 128 GiB DRAM per node, 16 GiB CXL).
type ConfigSpec struct {
	// Nodes is the number of compute nodes sharing the CXL device.
	Nodes int `json:"nodes,omitempty"`
	// NodeDRAMBytes is per-node local memory in bytes.
	NodeDRAMBytes int64 `json:"node_dram_bytes,omitempty"`
	// CXLCapacityBytes is the shared device capacity in bytes.
	CXLCapacityBytes int64 `json:"cxl_capacity_bytes,omitempty"`
	// CXLLatency is the round-trip latency to CXL memory.
	CXLLatency Duration `json:"cxl_latency,omitempty"`
	// Cores is the number of cores per node.
	Cores int `json:"cores,omitempty"`
	// CheckpointLanes shards checkpoint pipelines across worker lanes.
	CheckpointLanes int `json:"checkpoint_lanes,omitempty"`
	// RestoreLanes is the restore-side lane count.
	RestoreLanes int `json:"restore_lanes,omitempty"`
	// Workers is the simulation worker count (DESIGN.md §13): it fans
	// calibration legs out to goroutines and never changes results.
	Workers int `json:"workers,omitempty"`
	// Seed drives all randomized behaviour (Workload.Seed overrides it
	// for trace generation).
	Seed int64 `json:"seed,omitempty"`
	// Capacity tunes checkpoint eviction (DESIGN.md §10).
	Capacity CapacitySpec `json:"capacity,omitempty"`
	// Replication tunes the device pool and replica placement
	// (DESIGN.md §12).
	Replication ReplicationSpec `json:"replication,omitempty"`
	// Fabric declares a multi-switch topology (DESIGN.md §14).
	Fabric FabricSpec `json:"fabric,omitempty"`
	// Telemetry tunes sampling cadence and SLO objectives
	// (DESIGN.md §11). Streaming sessions always sample; Enabled is
	// implied.
	Telemetry TelemetrySpec `json:"telemetry,omitempty"`
	// XRay enables critical-path latency attribution (DESIGN.md §16):
	// the session's result gains a blame report, also served at
	// GET /v1/sessions/{id}/xray and streamed as an "xray" frame.
	XRay bool `json:"xray,omitempty"`
}

// CapacitySpec mirrors cxlfork.CapacityConfig.
type CapacitySpec struct {
	// EvictPolicy is "costbenefit" (default), "lru", or "largest".
	EvictPolicy string `json:"evict_policy,omitempty"`
	// HighWatermark is the occupancy fraction that triggers eviction.
	HighWatermark float64 `json:"high_watermark,omitempty"`
	// LowWatermark is the occupancy fraction eviction drives back to.
	LowWatermark float64 `json:"low_watermark,omitempty"`
	// ReclaimPeriod is the background re-check interval.
	ReclaimPeriod Duration `json:"reclaim_period,omitempty"`
}

// ReplicationSpec mirrors cxlfork.ReplicationConfig.
type ReplicationSpec struct {
	// Devices is the pool size; 0 or 1 keeps the single device.
	Devices int `json:"devices,omitempty"`
	// Factor is the number of devices holding each checkpoint.
	Factor int `json:"factor,omitempty"`
	// RepairPeriod is the anti-entropy loop's tick.
	RepairPeriod Duration `json:"repair_period,omitempty"`
	// RetryBudget is the per-restore retry budget.
	RetryBudget int `json:"retry_budget,omitempty"`
}

// FabricSpec mirrors cxlfork.FabricConfig.
type FabricSpec struct {
	// Topology is the fabric spec text ("" keeps the flat model).
	Topology string `json:"topology,omitempty"`
	// Placement is "hash" (default) or "locality".
	Placement string `json:"placement,omitempty"`
}

// TelemetrySpec mirrors the telemetry/SLO knobs of
// cxlfork.TelemetryConfig.
type TelemetrySpec struct {
	// SampleEvery is the virtual-time sampling period (default 100ms) —
	// also the streaming frame cadence.
	SampleEvery Duration `json:"sample_every,omitempty"`
	// SeriesCap bounds each series' sample ring.
	SeriesCap int `json:"series_cap,omitempty"`
	// SLOOccupancy declares a device-occupancy objective.
	SLOOccupancy float64 `json:"slo_occupancy,omitempty"`
	// SLOColdStartP99 declares a cold-start tail objective.
	SLOColdStartP99 Duration `json:"slo_cold_start_p99,omitempty"`
	// SLODrive lets a firing occupancy alert drive the capacity
	// manager.
	SLODrive bool `json:"slo_drive,omitempty"`
}

// WorkloadSpec is the JSON mirror of cxlfork.Workload.
type WorkloadSpec struct {
	// Design is "CXLfork" (default), "CXLfork-MoW", "CRIU-CXL", or
	// "Mitosis-CXL".
	Design string `json:"design,omitempty"`
	// RPS is the aggregate request rate (default 60).
	RPS float64 `json:"rps,omitempty"`
	// Duration is the replayed trace length in virtual time
	// (default 10s).
	Duration Duration `json:"duration,omitempty"`
	// Functions restricts the workload mix (default: full suite); each
	// function may appear once.
	Functions []string `json:"functions,omitempty"`
	// Weights skews per-function request shares.
	Weights map[string]float64 `json:"weights,omitempty"`
	// KeepAlive overrides the idle keep-alive window.
	KeepAlive Duration `json:"keep_alive,omitempty"`
	// NodeBudgetBytes overrides the per-node memory budget.
	NodeBudgetBytes int64 `json:"node_budget_bytes,omitempty"`
	// Seed drives trace generation (default Config seed, then 7).
	Seed int64 `json:"seed,omitempty"`
}

// SessionSpec carries the serving options of one session.
type SessionSpec struct {
	// Timeout caps the session's wall-clock runtime; 0 keeps the
	// server default. A session hitting it ends with reason "timeout"
	// and a partial result.
	Timeout Duration `json:"timeout,omitempty"`
	// Pace replays in live time: virtual seconds simulated per wall
	// second. 0 (default) runs unpaced — as fast as the engine goes;
	// 1 replays in real time; 10 replays 10× faster than real time.
	Pace float64 `json:"pace,omitempty"`
}

// MaxRPS bounds Workload.RPS at admission — a saturation guard, not a
// simulation limit.
const MaxRPS = 100000

// Platform bounds at admission. Frames are built as a session first
// touches them, about 12 MiB of host memory per touched GiB, so an
// oversized platform could let one session exhaust the process that
// hosts every other session. MaxPlatformBytes caps nodes ×
// node_dram_bytes + cxl_capacity_bytes, zero fields counted at their
// defaults: it is exactly the default platform (2 × 128 GiB + 16 GiB),
// so no spec can touch more than an empty config could.
const (
	MaxNodes         = 16
	MaxPlatformBytes = 272 << 30
)

// Count bounds at admission. Each field sizes an allocation when the
// run starts: the lane makespan holds one slot per lane, the device pool
// builds one device per entry, and every telemetry series preallocates
// a ring of SeriesCap samples. Zero and negative values keep the
// defaults.
const (
	MaxLanes     = 64
	MaxDevices   = 16
	MaxSeriesCap = 1 << 16
)

// Topology bounds at admission. fabric.topology declares its own hosts
// and devices, and its device count replaces replication.devices, so
// its hosts are bounded at MaxNodes and its devices at MaxDevices. The
// fabric routes every host to every device over its switches and
// links, so those are bounded too: MaxSwitches gives every host and
// device a switch of its own, and MaxLinks is four links per node of a
// topology at every cap. fabric.Parse bounds each link's streams at
// fabric.MaxStreams.
const (
	MaxSwitches = MaxNodes + MaxDevices
	MaxLinks    = 4 * (MaxNodes + MaxSwitches + MaxDevices)
)

// MaxTicks bounds, at admission, the ticks of each loop a session runs
// on a fixed virtual-time period: the workload duration over
// telemetry.sample_every, over capacity.reclaim_period and over
// replication.repair_period, each at the default a run applies when
// unset (10 s; 100 ms, 1 s and 500 ms). Every telemetry tick appends
// one sample frame to the session's frame log, which the manager keeps
// for the session's life and for the 64 most recently finished
// sessions. A sample frame holds every series, so its size grows with
// nodes and devices: at MaxNodes × MaxDevices with x-ray on it is
// about 11 KB, and a log at the cap about 180 MB. A reclaim or repair
// tick costs an event and a pass over the device pool, so a 1 µs
// period would run until the session timeout. At the five-minute
// server cap on virtual duration the defaults tick 3,000, 300 and 600
// times.
const MaxTicks = 1 << 14

// platformBytes is the simulated memory c builds: nodes × node DRAM plus
// CXL capacity, zero fields at the defaults a run applies.
func (c ConfigSpec) platformBytes() int64 {
	p := params.Default()
	nodes, dram, cxl := int64(c.Nodes), c.NodeDRAMBytes, c.CXLCapacityBytes
	if nodes == 0 {
		nodes = 2
	}
	if dram == 0 {
		dram = p.NodeDRAMBytes
	}
	if cxl == 0 {
		cxl = p.CXLBytes
	}
	return nodes*dram + cxl
}

// Validate rejects malformed specs before they consume a session slot.
// maxVirtual caps Workload.Duration (0 = no cap).
func (s Spec) Validate(maxVirtual time.Duration) error {
	if s.Workload.Design != "" {
		ok := false
		for _, d := range cxlfork.WorkloadDesigns {
			if d == s.Workload.Design {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("unknown design %q (want one of %v)", s.Workload.Design, cxlfork.WorkloadDesigns)
		}
	}
	c := s.Config
	var topo fabric.Spec
	if c.Fabric.Topology != "" {
		t, err := fabric.Parse(c.Fabric.Topology)
		if err != nil {
			return fmt.Errorf("fabric.topology: %w", err)
		}
		topo = *t
	}
	if c.Nodes < 0 || c.Nodes > MaxNodes {
		return fmt.Errorf("nodes %d out of range [0,%d]", c.Nodes, MaxNodes)
	}
	if c.NodeDRAMBytes < 0 || c.NodeDRAMBytes > MaxPlatformBytes {
		return fmt.Errorf("node_dram_bytes %d out of range [0,%d]", c.NodeDRAMBytes, int64(MaxPlatformBytes))
	}
	if c.CXLCapacityBytes < 0 || c.CXLCapacityBytes > MaxPlatformBytes {
		return fmt.Errorf("cxl_capacity_bytes %d out of range [0,%d]", c.CXLCapacityBytes, int64(MaxPlatformBytes))
	}
	if b := c.platformBytes(); b > MaxPlatformBytes {
		return fmt.Errorf("platform memory %d bytes (nodes × node_dram_bytes + cxl_capacity_bytes) exceeds cap %d",
			b, int64(MaxPlatformBytes))
	}
	for _, b := range []struct {
		field    string
		val, max int
	}{
		{"checkpoint_lanes", c.CheckpointLanes, MaxLanes},
		{"restore_lanes", c.RestoreLanes, MaxLanes},
		{"replication.devices", c.Replication.Devices, MaxDevices},
		{"telemetry.series_cap", c.Telemetry.SeriesCap, MaxSeriesCap},
		{"fabric.topology hosts", len(topo.Hosts), MaxNodes},
		{"fabric.topology switches", len(topo.Switches), MaxSwitches},
		{"fabric.topology devices", len(topo.Devices), MaxDevices},
		{"fabric.topology links", len(topo.Links), MaxLinks},
	} {
		if b.val > b.max {
			return fmt.Errorf("%s %d exceeds cap %d", b.field, b.val, b.max)
		}
	}
	if _, err := porter.ParseEvictPolicy(c.Capacity.EvictPolicy); err != nil {
		return fmt.Errorf("unknown capacity.evict_policy %q (want costbenefit, lru or largest)", c.Capacity.EvictPolicy)
	}
	if replica.CheckPlacement(c.Fabric.Placement) != nil {
		return fmt.Errorf("unknown fabric.placement %q (want hash or locality)", c.Fabric.Placement)
	}
	if s.Workload.RPS < 0 || s.Workload.RPS > MaxRPS {
		return fmt.Errorf("rps %g out of range [0,%d]", s.Workload.RPS, MaxRPS)
	}
	if s.Workload.Duration < 0 {
		return fmt.Errorf("negative duration %v", time.Duration(s.Workload.Duration))
	}
	if maxVirtual > 0 && time.Duration(s.Workload.Duration) > maxVirtual {
		return fmt.Errorf("duration %v exceeds server cap %v", time.Duration(s.Workload.Duration), maxVirtual)
	}
	dur := time.Duration(s.Workload.Duration)
	if dur <= 0 {
		dur = 10 * time.Second
	}
	def := params.Default()
	for _, loop := range []struct {
		field      string
		every, def time.Duration
	}{
		{"telemetry.sample_every", time.Duration(c.Telemetry.SampleEvery), time.Duration(def.SampleEvery)},
		{"capacity.reclaim_period", time.Duration(c.Capacity.ReclaimPeriod), time.Duration(def.CXLReclaimPeriod)},
		{"replication.repair_period", time.Duration(c.Replication.RepairPeriod), time.Duration(def.RepairPeriod)},
	} {
		every := loop.every
		if every <= 0 {
			every = loop.def
		}
		if dur/every > MaxTicks {
			return fmt.Errorf("%s %v gives %d ticks over %v of virtual time, above cap %d",
				loop.field, every, int64(dur/every), dur, MaxTicks)
		}
	}
	if _, err := experiments.ResolveFunctions(s.Workload.Functions); err != nil {
		return err
	}
	for fn, w := range s.Workload.Weights {
		if w < 0 {
			return fmt.Errorf("negative weight %g for function %q", w, fn)
		}
	}
	if s.Workload.zeroesMix() {
		return fmt.Errorf("weights zero every function in the mix")
	}
	if s.Session.Pace < 0 {
		return fmt.Errorf("negative pace %g", s.Session.Pace)
	}
	if s.Session.Timeout < 0 {
		return fmt.Errorf("negative timeout %v", time.Duration(s.Session.Timeout))
	}
	return nil
}

// zeroesMix reports whether Weights sets every function of the mix
// (Functions, or the full suite) to zero, leaving no arrivals to
// generate. An unlisted function keeps its default share.
func (w WorkloadSpec) zeroesMix() bool {
	if len(w.Weights) == 0 {
		return false
	}
	mix := w.Functions
	if len(mix) == 0 {
		mix = cxlfork.FunctionNames()
	}
	for _, fn := range mix {
		if wt, ok := w.Weights[fn]; !ok || wt > 0 {
			return false
		}
	}
	return true
}

// build maps the wire spec onto the facade types.
func (s Spec) build() (cxlfork.Config, cxlfork.Workload) {
	c := s.Config
	cfg := cxlfork.Config{
		Nodes:           c.Nodes,
		NodeDRAM:        c.NodeDRAMBytes,
		CXLCapacity:     c.CXLCapacityBytes,
		CXLLatency:      time.Duration(c.CXLLatency),
		Cores:           c.Cores,
		CheckpointLanes: c.CheckpointLanes,
		RestoreLanes:    c.RestoreLanes,
		Workers:         c.Workers,
		Seed:            c.Seed,
		Capacity: cxlfork.CapacityConfig{
			EvictPolicy:   c.Capacity.EvictPolicy,
			HighWatermark: c.Capacity.HighWatermark,
			LowWatermark:  c.Capacity.LowWatermark,
			ReclaimPeriod: time.Duration(c.Capacity.ReclaimPeriod),
		},
		Replication: cxlfork.ReplicationConfig{
			Devices:      c.Replication.Devices,
			Factor:       c.Replication.Factor,
			RepairPeriod: time.Duration(c.Replication.RepairPeriod),
			RetryBudget:  c.Replication.RetryBudget,
		},
		Fabric: cxlfork.FabricConfig{
			Topology:  c.Fabric.Topology,
			Placement: c.Fabric.Placement,
		},
		Telemetry: cxlfork.TelemetryConfig{
			SampleEvery:     time.Duration(c.Telemetry.SampleEvery),
			SeriesCap:       c.Telemetry.SeriesCap,
			SLOOccupancy:    c.Telemetry.SLOOccupancy,
			SLOColdStartP99: time.Duration(c.Telemetry.SLOColdStartP99),
			SLODrive:        c.Telemetry.SLODrive,
		},
		XRay: c.XRay,
	}
	w := s.Workload
	wl := cxlfork.Workload{
		Design:          w.Design,
		RPS:             w.RPS,
		Duration:        time.Duration(w.Duration),
		Functions:       w.Functions,
		Weights:         w.Weights,
		KeepAlive:       time.Duration(w.KeepAlive),
		NodeBudgetBytes: w.NodeBudgetBytes,
		Seed:            w.Seed,
	}
	return cfg, wl
}
