// Package porter implements CXLporter, the horizontal FaaS autoscaler
// built on remote fork (paper §5). Each function's record holds its
// published checkpoint (CID), restore recency and re-publication
// snapshot; the porter keeps a pool of ghost containers per function,
// dynamically selects CXLfork tiering policies from observed latency
// and memory pressure, and shortens keep-alive windows under pressure.
//
// Scaling experiments (Fig. 10) replay bursty arrival traces over the
// discrete-event engine. Per-request work uses profiles measured
// mechanistically in isolation (restore latency, cold and warm execution
// time, steady-state local footprint, per mechanism and tiering policy);
// the event-driven replay then captures queueing, cold-start storms, and
// memory-pressure effects that the profiles alone cannot.
//
// Entry points: New over a cluster.Cluster, then Setup to deploy and
// checkpoint a suite and Run to replay an arrival trace. The
// device-capacity manager — eviction policies, watermarks, admission,
// re-checkpointing — lives in capacity.go (paper §8 discussion,
// DESIGN.md §10); ParseEvictPolicy maps params.EvictPolicy onto it.
package porter
