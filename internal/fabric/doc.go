// Package fabric models the CXL fabric as an explicit topology graph:
// hosts and pooled memory devices attached to a tree (or chain) of CXL
// switches, with per-link latency, bandwidth, and stream capacity. It
// replaces the flat single-hop fabric assumption (one shared device
// behind a global hop constant) that the original reproduction
// inherited from the paper's two-node testbed (DESIGN.md §14).
//
// A topology is declared by a small line-oriented spec (Parse), built
// against a parameter set (Spec.Build), and then queried for
// deterministic shortest paths (latency-weighted, hop- and
// name-tie-broken) between every host and device. Net layers a
// per-link in-flight contention model on top in virtual time: each
// link admits a fixed number of full-rate streams, and transfers that
// find every slot busy queue behind the earliest-free one, so restore
// storms against a single device collapse on that device's link while
// sharded pools spread.
//
// Every simulation still runs on one event queue (DESIGN.md §13): the
// topology prices transfers, it does not partition the engine.
package fabric
