// Package cachesim models the per-node last-level cache.
//
// PageLRU is the model the FaaS execution engine uses: it tracks
// residency at page granularity with exact LRU replacement, which is
// cheap enough to simulate multi-hundred-megabyte working sets and
// captures the effect the paper leans on — function working sets that
// fit in the 64 MB L3 hide CXL latency; those that do not (BFS, Bert)
// expose it (§2.2, §7.1). The same structure, keyed by (ASID, VPN),
// models the TLB. Its tests check it against a map-backed reference
// LRU, differentially and under fuzzing.
//
// Entry point: NewPageLRU.
package cachesim
