// Package cxlfork is a full-system reproduction of "CXLfork: Fast
// Remote Fork over CXL Fabrics" (ASPLOS 2025) as a deterministic
// simulation: a cluster of OS instances sharing a CXL memory device, a
// remote-fork interface with three implementations (CXLfork, CRIU-CXL,
// Mitosis-CXL), tiering policies, a serverless workload suite, and the
// CXLporter autoscaler.
//
// This package is the public facade. Virtual time is exposed as
// time.Duration (the simulation runs in virtual nanoseconds; nothing
// here touches the wall clock). A typical session:
//
//	sys, err := cxlfork.NewSystem(cxlfork.DefaultConfig())
//	if err != nil {
//		return err                           // a bad Config.Fabric
//	}
//	fn, _ := sys.DeployFunction(0, "Bert")   // cold start on node 0
//	fn.Warmup(16)                            // JIT steady state
//	ck, _ := sys.Checkpoint(fn, cxlfork.CXLfork, "bert-v1")
//	clone, _ := sys.Restore(1, ck, cxlfork.RestoreOptions{})
//	lat, _ := clone.Invoke()                 // near-warm on node 1
//
// The internal packages (see DESIGN.md) expose the full substrate for
// experiments; cmd/cxlsim regenerates every table and figure of the
// paper.
//
// Capacity management: Config.Capacity selects the checkpoint eviction
// policy and device watermarks, and System.CapacityStats reports live
// device occupancy with dedup-aware exclusive/shared byte splits (see
// DESIGN.md §10 and the -exp capacity sweep in EXPERIMENTS.md).
package cxlfork
