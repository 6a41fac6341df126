package cxl

import (
	"cxlfork/internal/des"
	"cxlfork/internal/telemetry"
)

// occupancyProbe is Device.Occupancy memoized on the device's version
// plus its pool's version. Occupancy walks every arena's frames, and
// the walk's inputs change only through arena creates, allocs, tracks
// and releases (the device version) and frame allocations and refcount
// changes in the device pool (the pool version): arenas track only
// device-pool frames, an invariant rforktest checks. Between such
// changes the memo is exact, so idle telemetry ticks cost nothing.
type occupancyProbe struct {
	d     *Device
	valid bool
	ver   uint64
	occ   DeviceOccupancy
}

func (p *occupancyProbe) get() DeviceOccupancy {
	if v := p.d.version + p.d.pool.Version(); !p.valid || v != p.ver {
		p.occ, p.ver, p.valid = p.d.Occupancy(), v, true
	}
	return p.occ
}

// RegisterTelemetry registers the device's gauges and counters against
// reg. The exclusive and shared probes share one occupancy walk,
// recomputed only when the device or its pool has changed.
func (d *Device) RegisterTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	occ := &occupancyProbe{d: d}
	reg.Gauge("cxl_used_bytes", "bytes allocated on the shared CXL device (data plus metadata)",
		func(des.Time) float64 { return float64(d.UsedBytes()) })
	reg.Gauge("cxl_meta_bytes", "bytes of checkpoint metadata resident on the device",
		func(des.Time) float64 { return float64(d.MetaBytes()) })
	reg.Gauge("cxl_utilization", "device occupancy as a fraction of capacity",
		func(des.Time) float64 { return d.Utilization() })
	reg.Gauge("cxl_arenas", "sealed plus staged checkpoint arenas resident on the device",
		func(des.Time) float64 { return float64(d.Arenas()) })
	reg.Gauge("cxl_exclusive_bytes", "frame bytes referenced by exactly one checkpoint",
		func(des.Time) float64 { return float64(occ.get().ExclusiveFrames) })
	reg.Gauge("cxl_shared_bytes", "frame bytes shared by two or more checkpoints via dedup",
		func(des.Time) float64 { return float64(occ.get().SharedFrames) })
	reg.Gauge("cxl_dedup_index", "live entries in the content-addressed frame index",
		func(des.Time) float64 { return float64(d.DedupIndexLen()) })
	reg.Gauge("cxl_dedup_hit_rate", "fraction of frame allocations served by an existing frame",
		func(des.Time) float64 { return d.Dedup.HitRate() })
	reg.CounterFunc("cxl_dedup_hits_total", "frame allocations deduplicated against a resident frame",
		func(des.Time) float64 { return float64(d.Dedup.Hits.Value()) })
	reg.CounterFunc("cxl_dedup_misses_total", "frame allocations that stored a new frame",
		func(des.Time) float64 { return float64(d.Dedup.Misses.Value()) })
	reg.CounterFunc("cxl_dedup_bytes_saved_total", "device bytes avoided by frame dedup",
		func(des.Time) float64 { return float64(d.Dedup.BytesSaved.Value()) })
	reg.CounterFunc("cxl_read_bytes_total", "bytes read from the device over the fabric",
		func(des.Time) float64 { return float64(d.ReadBytes) })
	reg.CounterFunc("cxl_write_bytes_total", "bytes written to the device over the fabric",
		func(des.Time) float64 { return float64(d.WriteBytes) })
}
