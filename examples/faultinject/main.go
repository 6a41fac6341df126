// Fault injection: crash a node mid-checkpoint, garbage-collect the
// torn image, retry on a surviving node, and detect a silently
// corrupted checkpoint — the fork fabric's failure model end to end.
// Everything replays bit-identically under the same Config.Seed.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"cxlfork"
)

func main() {
	cfg := cxlfork.DefaultConfig()
	cfg.Seed = 42
	sys, err := cxlfork.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	bert, err := sys.DeployFunction(0, "Bert")
	if err != nil {
		log.Fatal(err)
	}
	if err := bert.Warmup(16); err != nil {
		log.Fatal(err)
	}

	// Schedule node 0 to die right before the checkpoint's publication
	// commit: after the page tables are copied, before the global-state
	// seal. The checkpoint is torn, not published.
	sys.InjectFault(cxlfork.FaultRule{
		Kind: cxlfork.CrashNode,
		Step: cxlfork.StepCheckpointGlobal,
		Node: 0,
	})
	_, err = sys.Checkpoint(bert, cxlfork.CXLfork, "bert-v1")
	fmt.Printf("checkpoint on crashing node: %v\n", err)
	if !errors.Is(err, cxlfork.ErrNodeDown) {
		log.Fatalf("expected ErrNodeDown, got %v", err)
	}
	fmt.Printf("node 0 down: %v, device holds %d KB of torn state\n",
		sys.NodeIsDown(0), sys.CXLMemoryUsed()>>10)

	// Crash-consistent recovery: unsealed arenas are debris, never
	// restorable; Recover reclaims 100% of them.
	st := sys.RecoverDevice()
	fmt.Printf("recovered %d torn arena(s): %d KB metadata + %d KB frames; device now %d KB\n",
		st.Arenas, st.MetaBytes>>10, st.FrameBytes>>10, sys.CXLMemoryUsed()>>10)

	// The node comes back (its tasks are gone), and the retried
	// checkpoint publishes — this time under a degraded fabric, which
	// slows the copies but cannot fail them.
	sys.ReviveNode(0)
	sys.DegradeFabric(4, 50*time.Millisecond)
	t0 := sys.Now()
	ck, err := sys.Checkpoint(bert, cxlfork.CXLfork, "bert-v2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retried checkpoint published in %v under a 4x-degraded fabric\n", sys.Now()-t0)

	clone, err := sys.Restore(1, ck, cxlfork.RestoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := clone.Invoke(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("clone restored and invoked on node 1")

	// Silent corruption: flip one seeded-random bit in the next
	// checkpoint's global-state record. The checksummed envelope catches
	// it at restore time, before the child is touched.
	sys.InjectFault(cxlfork.FaultRule{
		Kind:   cxlfork.CorruptBlob,
		Step:   cxlfork.StepCheckpointGlobal,
		Target: "bert-v3",
	})
	bad, err := sys.Checkpoint(bert, cxlfork.CXLfork, "bert-v3")
	if err != nil {
		log.Fatal(err)
	}
	_, err = sys.Restore(1, bad, cxlfork.RestoreOptions{})
	fmt.Printf("restore of corrupted image: %v\n", err)
	if !errors.Is(err, cxlfork.ErrImageCorrupt) {
		log.Fatalf("expected ErrImageCorrupt, got %v", err)
	}

	fs := sys.FaultStats()
	fmt.Printf("fault stats: %d injected, %d retries, %d fallbacks, %d KB recovered\n",
		fs.Injected, fs.Retries, fs.Fallbacks, fs.RecoveredBytes>>10)
}
