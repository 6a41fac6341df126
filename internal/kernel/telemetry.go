package kernel

import (
	"cxlfork/internal/des"
	"cxlfork/internal/telemetry"
)

// RegisterTelemetry registers the node's gauges and counters against
// reg, labelled with the node name, and arms the lane-pipeline
// accumulation counters that laneObs feeds.
func (o *OS) RegisterTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	o.Telem = reg
	node := telemetry.L("node", o.Name)
	reg.Gauge("kernel_mem_used_bytes", "local DRAM bytes allocated on the node",
		func(des.Time) float64 { return float64(o.Mem.UsedBytes()) }, node)
	reg.Gauge("kernel_mem_utilization", "local DRAM occupancy as a fraction of capacity",
		func(des.Time) float64 { return o.MemUtilization() }, node)
	reg.Gauge("kernel_tasks", "live tasks on the node",
		func(des.Time) float64 { return float64(o.Tasks()) }, node)
	reg.CounterFunc("kernel_faults_total", "page faults taken by tasks on the node",
		func(des.Time) float64 { return float64(o.Faults.Total()) }, node)
	reg.CounterFunc("kernel_cow_breaks_total", "copy-on-write breaks (local and CXL-backed)",
		func(des.Time) float64 {
			return float64(o.Faults.Count(FaultCoWLocal) + o.Faults.Count(FaultCoWCXL))
		}, node)
	o.laneBusy = reg.Counter("des_lane_busy_ns_total",
		"virtual time checkpoint/restore lanes spent occupied on the node", node)
	o.laneShards = reg.Counter("des_lane_shards_total",
		"checkpoint/restore shards scheduled through lane pipelines", node)
	o.streamWork = reg.Counter("des_stream_copy_ns_total",
		"full-rate stream copy time pushed through lane pipelines (lane busy minus this is setup, dispatch, and stream queueing)", node)
}

// laneObs chains a lane-utilization observer in front of prev (the
// tracer's shard collector, possibly nil). Each scheduled shard adds
// its lane-occupancy interval and its uncontended stream copy time to
// the node's counters; the ratio of the two is the stream utilization
// of the pipeline's busy time. Observers are passive, so chaining one
// never changes a makespan. With telemetry disabled laneObs returns
// prev unchanged.
func (o *OS) laneObs(shards []des.Shard, prev des.ShardObserver) des.ShardObserver {
	if o.laneBusy == nil {
		return prev
	}
	return func(shard, lane int, start, end des.Time) {
		o.laneBusy.Add(float64(end - start))
		o.laneShards.Inc()
		sh := shards[shard]
		o.streamWork.Add(float64(des.Time(sh.Units) * sh.UnitCost))
		if prev != nil {
			prev(shard, lane, start, end)
		}
	}
}
