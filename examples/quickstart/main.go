// Quickstart: clone a warmed serverless function across nodes with
// CXLfork and compare against a fresh cold start — the paper's core
// promise in ~50 lines (checkpoint once, restore anywhere, share
// read-only state over the CXL fabric).
//
// For the served path — the same simulations behind an HTTP API with
// streaming telemetry — see examples/served/walkthrough.sh and
// docs/API.md.
package main

import (
	"fmt"
	"log"

	"cxlfork"
)

func main() {
	sys, err := cxlfork.NewSystem(cxlfork.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Cold-start BERT on node 0 and warm it to JIT steady state.
	t0 := sys.Now()
	bert, err := sys.DeployFunction(0, "Bert")
	if err != nil {
		log.Fatal(err)
	}
	coldStart := sys.Now() - t0
	if err := bert.Warmup(16); err != nil {
		log.Fatal(err)
	}
	warm, err := bert.Invoke()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 0: cold start %v, warm invocation %v\n", coldStart, warm)

	// Checkpoint into shared CXL memory. The checkpoint is decoupled
	// from node 0: the parent can exit.
	ck, err := sys.Checkpoint(bert, cxlfork.CXLfork, "bert-v1")
	if err != nil {
		log.Fatal(err)
	}
	info := ck.Describe()
	fmt.Printf("checkpoint: %d pages (%d dirty, %d file-backed), %d VMAs, %d PT leaves, %d MB on CXL\n",
		info.DataPages, info.DirtyPages, info.FilePages, info.VMAs,
		info.PageTableLeaves, info.CXLBytes>>20)
	bert.Exit()

	// Remote fork onto node 1: attach the checkpointed page-table and
	// VMA leaves, reopen descriptors, go.
	t0 = sys.Now()
	clone, err := sys.Restore(1, ck, cxlfork.RestoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	restore := sys.Now() - t0
	first, err := clone.Invoke()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 1: restore %v, first invocation %v (vs %v cold start)\n",
		restore, first, coldStart)
	fmt.Printf("node 1: clone keeps %d MB local, shares %d MB from CXL; faults: %v\n",
		clone.ResidentLocalBytes()>>20, clone.ResidentCXLBytes()>>20, clone.FaultCounts())

	// A second clone on node 0 shares the same CXL-resident state:
	// cluster-wide deduplication.
	clone2, err := sys.Restore(0, ck, cxlfork.RestoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := clone2.Invoke(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two clones alive: %d MB on the device total (deduplicated), local: node0 %d MB extra, node1 %d MB extra\n",
		sys.CXLMemoryUsed()>>20, clone2.ResidentLocalBytes()>>20, clone.ResidentLocalBytes()>>20)
}
