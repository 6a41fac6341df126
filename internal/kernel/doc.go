// Package kernel implements the per-node operating system instance of
// the simulated cluster: tasks, address spaces, page-fault handling,
// copy-on-write, and local fork. Every node runs a standalone instance
// of the same OS image and shares the root filesystem (paper §4), so a
// cluster is a set of OS values sharing one fsim.FS and one cxl.Device.
//
// All kernel operations advance the node's virtual clock by their
// modelled cost, so end-to-end latencies are simply clock deltas.
//
// Every checkpoint, restore and fork records itself through an Op
// (BeginOp): the mechanism reports its phases and runs its lane
// pipelines through it, and the Op decides the layout of the
// operation's spans — the op span, its phases back to back, each
// pipeline's lane spans under its phase, or on failure the op span
// with a zero-width error span naming the failed step.
//
// The entry point is NewOS, one per node; tasks, address spaces and the
// fault paths are methods on the returned OS and its Tasks.
package kernel
