// Package metrics provides the latency and utilization accounting used
// by the experiment drivers: exact percentile estimation over recorded
// samples and simple time-weighted gauges.
//
// Entry points: NewLatencyRecorder, and Union, a read-only recorder
// over several recorders that stores no samples of its own (the
// porter's overall latency is the union of its per-function ones);
// NewRunningPercentile, one exact nearest-rank percentile kept current
// per sample (the porter's cold-start P99 telemetry probe); Counter,
// Gauge and the *Counters bundles (faults, dedup, capacity)
// are plain accumulators threaded through the subsystems. The
// percentile reporting backs the paper's P50/P99 evaluation metrics
// (§6-§7).
package metrics
