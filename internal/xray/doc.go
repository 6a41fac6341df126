// Package xray is the critical-path latency attribution engine
// (DESIGN.md §16). It consumes per-request component timings from the
// porter (and, independently, the trace span stream) and decomposes
// each request's end-to-end virtual-time latency into named blame
// components — porter queueing, CPU queueing, parent-uplink copy,
// replica failover probing, retry backoff, fabric transit and stream
// contention, restore/cold-init service, container provisioning, and
// execution — with the residual explicitly accounted.
//
// The engine aggregates three views:
//
//   - per-class blame tables (warm-start / fork-restore / scratch-cold,
//     or per-op for span-derived reports), each component with total,
//     share, mean, and max;
//   - a per-link / per-switch / per-device fabric heatmap fed by the
//     contention model's observer hook (fabric.Net.SetObserver);
//   - exemplars: the top-K worst requests per class with their trace
//     span IDs, so a P99 metric links directly to the trace behind it.
//
// Observe retains nothing of a request, so a feed can refill one
// component buffer for every request. Aggregates are short slices
// scanned by name, and a new exemplar takes over the component buffer
// of the one it pushes out of a full top-K, so once the exemplar sets
// are full a request costs a few slice scans and no allocation. Report
// deep-copies what it returns and never aliases the attributor.
//
// Attribution is purely observational: the attributor never advances a
// clock, draws randomness, or schedules events, so enabling it cannot
// change any simulated result. A nil *Attributor is the disabled
// engine — every method is a nil-safe no-op, the same zero-overhead
// pattern trace.Tracer and telemetry.Registry use. Reports render and
// hash deterministically: all aggregation is over sorted keys, so the
// same run produces byte-identical output at any worker count.
package xray
