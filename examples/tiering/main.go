// Tiering: the trade-off between local memory and execution speed when
// restoring a large-footprint function (paper §4.3, Fig. 8). BERT's
// read-only working set exceeds the 64 MB LLC, so where its pages live
// matters: migrate-on-write keeps them on CXL (frugal, slower warm
// runs), migrate-on-access copies everything local (fast, fat), hybrid
// tiering uses the checkpointed Access bits to fetch only the hot set.
package main

import (
	"fmt"
	"log"
	"time"

	"cxlfork"
)

func main() {
	sys, err := cxlfork.NewSystem(cxlfork.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	bert, err := sys.DeployFunction(0, "Bert")
	if err != nil {
		log.Fatal(err)
	}
	// Warmup shapes the A/D bits: the checkpoint records which pages the
	// steady state actually touches — that is what hybrid tiering reads.
	if err := bert.Warmup(16); err != nil {
		log.Fatal(err)
	}
	ck, err := sys.Checkpoint(bert, cxlfork.CXLfork, "bert-tiering")
	if err != nil {
		log.Fatal(err)
	}
	bert.Exit()

	fmt.Printf("%-18s %12s %12s %12s %12s\n",
		"policy", "restore", "cold invoke", "warm invoke", "local MB")
	for _, pol := range []cxlfork.TieringPolicy{
		cxlfork.MigrateOnWrite, cxlfork.MigrateOnAccess, cxlfork.HybridTiering,
	} {
		t0 := sys.Now()
		clone, err := sys.Restore(1, ck, cxlfork.RestoreOptions{Policy: pol})
		if err != nil {
			log.Fatal(err)
		}
		restore := sys.Now() - t0
		cold, err := clone.Invoke()
		if err != nil {
			log.Fatal(err)
		}
		var warm time.Duration
		for i := 0; i < 3; i++ {
			warm, err = clone.Invoke()
			if err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%-18s %12v %12v %12v %12d\n",
			pol, restore.Round(time.Microsecond), cold.Round(time.Millisecond),
			warm.Round(time.Millisecond), clone.ResidentLocalBytes()>>20)
		clone.Exit()
	}

	// The user-driven interface: clear the A bits and let future clones
	// re-learn the hot set from live traffic (§4.3).
	n, err := ck.ClearAccessBits()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncleared %d checkpointed A bits; attached clones will re-mark the hot set\n", n)
}
