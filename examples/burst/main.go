// Burst: CXLporter absorbing a load spike (paper §5, §7.2). The same
// bursty Azure-like trace is replayed against the autoscaler configured
// with each remote-fork design; CXLfork's fast restores into ghost
// containers keep tail latency near warm-execution time while CRIU pays
// container creation plus full-image deserialization on every scale-out.
package main

import (
	"fmt"
	"log"
	"time"

	"cxlfork"
)

func main() {
	mix := []string{"Float", "Json", "Chameleon", "HTML", "Rnn"}
	fmt.Printf("replaying a 150 RPS bursty trace over %v\n\n", mix)
	fmt.Printf("%-12s %10s %10s %8s %8s %8s %8s\n",
		"design", "P50", "P99", "warm", "forks", "evicted", "promoted")

	for _, design := range []string{"CRIU-CXL", "Mitosis-CXL", "CXLfork"} {
		// Each replay builds its own cluster: same seed, same trace.
		res, err := cxlfork.RunWorkload(cxlfork.DefaultConfig(), cxlfork.Workload{
			Design:    design,
			Functions: mix,
			RPS:       150,
			Duration:  20 * time.Second,
			Seed:      42,
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10v %10v %8d %8d %8d %8d\n",
			design, res.P50.Round(time.Millisecond), res.P99.Round(time.Millisecond),
			res.WarmStarts, res.ColdForks, res.IdleEvictions, res.Promotions)
	}
}
