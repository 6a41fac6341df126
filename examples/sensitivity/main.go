// Sensitivity: how CXLfork behaves as CXL devices get faster (paper
// §7.1, Fig. 9). The simulated device latency is swept from today's
// FPGA prototype (≈400 ns) down to local-DRAM territory (100 ns); BFS —
// whose read-only working set misses the LLC — converges on local-fork
// performance, while a cache-resident function never felt the fabric.
package main

import (
	"fmt"
	"log"
	"time"

	"cxlfork"
)

func run(name string, latency time.Duration) (warm time.Duration, localBytes int64) {
	cfg := cxlfork.DefaultConfig()
	cfg.CXLLatency = latency
	sys, err := cxlfork.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fn, err := sys.DeployFunction(0, name)
	if err != nil {
		log.Fatal(err)
	}
	if err := fn.Warmup(16); err != nil {
		log.Fatal(err)
	}
	ck, err := sys.Checkpoint(fn, cxlfork.CXLfork, name+"-sweep")
	if err != nil {
		log.Fatal(err)
	}
	fn.Exit()
	clone, err := sys.Restore(1, ck, cxlfork.RestoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		warm, err = clone.Invoke()
		if err != nil {
			log.Fatal(err)
		}
	}
	return warm, clone.ResidentLocalBytes()
}

func main() {
	latencies := []time.Duration{400, 300, 200, 100} // nanoseconds
	for _, name := range []string{"Json", "BFS"} {
		fmt.Printf("%s (migrate-on-write, read-only state stays on CXL):\n", name)
		var base time.Duration
		for i, lat := range latencies {
			warm, local := run(name, lat*time.Nanosecond)
			if i == 0 {
				base = warm
			}
			fmt.Printf("  CXL %3dns: warm %10v (%.2fx of 400ns), %3d MB local\n",
				lat, warm.Round(time.Microsecond), float64(warm)/float64(base), local>>20)
		}
		fmt.Println()
	}
	fmt.Println("Json's working set fits the 64MB LLC, so fabric latency is invisible;")
	fmt.Println("BFS streams 75MB of graph from CXL every request and tracks the device speed.")
}
