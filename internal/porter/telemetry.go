package porter

import (
	"cxlfork/internal/des"
	"cxlfork/internal/metrics"
	"cxlfork/internal/params"
	"cxlfork/internal/telemetry"
)

// SLO objective names, stable identifiers for alerts and tests.
const (
	SLOOccupancyObjective = "cxl-occupancy"
	SLOColdP99Objective   = "cold-start-p99"
)

// registerTelemetry registers the porter's scheduling and capacity
// series against the cluster's registry and builds the SLO engine from
// params. Probes are read-only observers: they never touch porter
// state, so sampling cannot perturb a replay. Only the first porter
// built over a cluster registers (the series are cluster-scoped).
func (p *Porter) registerTelemetry() {
	reg := p.c.Telem
	if !reg.Enabled() || reg.Lookup("porter_queue_depth") != nil {
		return
	}
	p.telem = reg
	reg.Gauge("porter_queue_depth", "requests waiting for an instance across all functions",
		func(des.Time) float64 {
			n := 0
			for _, st := range p.fns {
				n += len(st.queue)
			}
			return float64(n)
		})
	reg.Gauge("porter_backlog", "spawn/checkpoint work queued behind busy cores across all nodes",
		func(des.Time) float64 {
			n := 0
			for _, ns := range p.nodes {
				n += ns.cpu.QueueLen()
			}
			return float64(n)
		})
	reg.Gauge("porter_ladder_level", "degradation ladder rung: 0 normal, 1 above low watermark, 2 above high watermark (evict/refuse), 3 serving scratch cold starts for an evicted checkpoint",
		func(des.Time) float64 { return float64(p.ladderLevel()) })
	// The cold P99 is read on every tick: a running order statistic
	// keeps each read O(1) where re-sorting ColdLatency would not.
	p.coldP99 = metrics.NewRunningPercentile(99)
	reg.Gauge("porter_cold_p99_ns", "running 99th percentile of cold-start latency",
		func(des.Time) float64 { return float64(p.coldP99.Value()) })
	for _, ns := range p.nodes {
		ns := ns
		node := telemetry.L("node", ns.os.Name)
		reg.Gauge("porter_cpu_busy", "cores occupied by spawn/checkpoint work on the node",
			func(des.Time) float64 { return float64(ns.cpu.Busy()) }, node)
		reg.Gauge("porter_node_utilization", "node memory budget occupancy (used plus reserved pages)",
			func(des.Time) float64 { return ns.utilization() }, node)
	}
	p.admits = reg.Counter("porter_admissions_total",
		"checkpoint publications admitted to the device (initial provisioning plus re-publications)")
	reg.CounterFunc("porter_evictions_total", "checkpoints dropped by the eviction engine",
		func(des.Time) float64 { return float64(p.capc.Evictions.Value()) },
		telemetry.L("policy", p.policy.String()))
	reg.CounterFunc("porter_reclaim_passes_total", "watermark-triggered eviction passes",
		func(des.Time) float64 { return float64(p.capc.ReclaimPasses.Value()) })
	reg.CounterFunc("porter_admit_refused_total", "checkpoint publications refused by the admission ladder",
		func(des.Time) float64 { return float64(p.capc.AdmitRefused.Value()) })
	reg.CounterFunc("porter_recheckpoints_total", "evicted checkpoints re-published from snapshots",
		func(des.Time) float64 { return float64(p.capc.Recheckpoints.Value()) })
	reg.CounterFunc("porter_warm_total", "requests served by a warm instance",
		func(des.Time) float64 { return float64(p.res.WarmStarts) })
	reg.CounterFunc("porter_cold_fork_total", "requests served by restoring a checkpoint",
		func(des.Time) float64 { return float64(p.res.ColdForks) })
	reg.CounterFunc("porter_cold_scratch_total", "requests served by a full scratch cold start",
		func(des.Time) float64 { return float64(p.res.ScratchCold) })
	reg.CounterFunc("porter_completed_total", "requests completed",
		func(des.Time) float64 { return float64(p.res.Completed) })
	reg.CounterFunc("porter_failed_restores_total", "restores abandoned because every replica of the checkpoint was lost",
		func(des.Time) float64 { return float64(p.res.FailedRestores) })
	if p.rep != nil {
		p.rep.RegisterTelemetry(reg)
	}
	if p.c.XRay.Enabled() {
		// Registered only when attribution is on, so the exported
		// series set — and every pinned telemetry golden — is
		// untouched by default.
		reg.CounterFunc("cxlfork_xray_unattributed_seconds_total",
			"restore blame (failover probes plus backoff) accrued toward requests that degraded to scratch cold starts, surfaced instead of silently dropped",
			func(des.Time) float64 { return float64(p.c.XRay.UnattributedNS()) / float64(des.Second) })
	}

	p.slo = telemetry.NewEngine(reg)
	pp := p.c.P
	if pp.SLOOccupancy > 0 {
		var action func()
		if pp.SLODriveReclaim {
			action = p.sloReclaim
		}
		p.slo.Add(telemetry.Objective{
			Name:   SLOOccupancyObjective,
			Series: "cxl_utilization",
			Target: pp.SLOOccupancy,
			Budget: params.SLOBudget,
			Short:  params.SLOWindowShort,
			Long:   params.SLOWindowLong,
			Factor: params.SLOBurnFactor,
		}, action)
		p.sloTighten = pp.SLODriveReclaim
	}
	if pp.SLOColdStartP99 > 0 {
		p.slo.Add(telemetry.Objective{
			Name:   SLOColdP99Objective,
			Series: "porter_cold_p99_ns",
			Target: float64(pp.SLOColdStartP99),
			Budget: params.SLOBudget,
			Short:  params.SLOWindowShort,
			Long:   params.SLOWindowLong,
			Factor: params.SLOBurnFactor,
		}, nil)
	}
}

// ladderLevel reports the porter's current degradation rung, derived
// purely from observable state so the probe stays read-only: 3 when
// some tracked function's checkpoint has been evicted and not yet
// re-published (its requests run from scratch), 2 when device
// occupancy is at or above the high watermark (the evict/refuse
// regime), 1 when above the low watermark, 0 otherwise.
func (p *Porter) ladderLevel() int {
	for _, st := range p.fns {
		if st.snap != nil && st.img == nil {
			return 3
		}
	}
	u := p.c.Pool.MaxUtilization()
	switch {
	case u >= p.c.P.CXLHighWatermark:
		return 2
	case u >= p.c.P.CXLLowWatermark:
		return 1
	}
	return 0
}

// sloReclaim is the occupancy alert's drive action: an early reclaim
// pass toward the low watermark, run on each firing evaluation. It is
// a no-op when occupancy is already below the low watermark, so a
// lingering alert cannot evict checkpoints the device has room for.
func (p *Porter) sloReclaim() {
	if p.c.Pool.MaxUtilization() < p.c.P.CXLLowWatermark {
		return
	}
	// Shed surplus replicas before evicting whole checkpoints — the
	// same pressure ladder as the watermark pass (DESIGN.md §12).
	p.shedForPressure()
	if p.c.Pool.MaxUtilization() < p.c.P.CXLLowWatermark {
		return
	}
	p.reclaimToLow()
}

// sampleTelemetry drives one telemetry tick: sample every probe, then
// let the SLO engine evaluate its objectives (and, when configured,
// drive the capacity manager).
func (p *Porter) sampleTelemetry(now des.Time) {
	if p.telem == nil {
		return
	}
	p.telem.Sample(now)
	p.slo.Evaluate(now)
}

// SLOAlerts returns the run's SLO fire/resolve transitions.
func (p *Porter) SLOAlerts() []telemetry.Alert { return p.slo.Alerts() }

// Telemetry returns the cluster's registry (nil when disabled).
func (p *Porter) Telemetry() *telemetry.Registry { return p.telem }
