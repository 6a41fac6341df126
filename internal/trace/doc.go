// Package trace implements a zero-overhead-when-disabled virtual-time
// span tracer for the simulation. Every checkpoint, restore, fork, and
// fault step records a span stamped with des.Time — node, operation,
// phase, bytes, pages — and spans nest: an operation span contains its
// phase spans, a copy phase contains the per-shard lane spans the
// pipeline scheduler observed. The span stream is the tracer's only
// record: it exports to Chrome trace_event JSON (viewable in Perfetto,
// chrome.go), and every other view is derived from it on demand —
// Phases folds it into per-phase latency distributions, and
// xray.FromSpans into per-request blame.
//
// The tracer is pull-free and purely observational: it never advances a
// clock or touches simulation state, so enabling it cannot change any
// simulated result — the golden fingerprint tests enforce this. All
// methods are nil-safe; a nil *Tracer is the disabled tracer, and the
// only cost on the disabled path is a nil check.
//
// Storage: Emit writes each span once into fixed chunks of 4,096
// events, up to DefaultBufferCap spans; past the cap spans are counted
// as dropped. Events appends the chunks to one flat slice on its first
// read after new spans and keeps that slice as the store, so a
// repeated read copies nothing.
//
// Determinism: events append in emission order, which is a pure function
// of the (seeded) simulation, and the exporters iterate in that order or
// in sorted orders — identical seeds yield byte-identical traces.
//
// Entry points: New (a nil Tracer is the disabled tracer); Emit and
// EmitFlow record spans, CollectShards observes a lane pipeline's
// shards and EmitShards records them as lane spans, Phases derives the
// phase table, and CheckNesting validates span structure. Checkpoint,
// restore and fork spans are laid out in one place, kernel.Op.
package trace
