// Workflow: passing intermediate payloads between chained serverless
// functions (the paper's §8 extension). By-value staging copies the
// payload into every stage's local DRAM; by-reference communication
// publishes it once into shared CXL memory and lets every stage map the
// same frames — zero copies, minimal local memory, pure fabric reads.
package main

import (
	"fmt"
	"log"
	"time"

	"cxlfork"
)

func main() {
	const stages = 4
	fmt.Printf("%d-stage function chain, payload handed stage-to-stage across nodes\n\n", stages)
	fmt.Printf("%-10s %-14s %12s %12s %12s\n",
		"payload", "transport", "latency", "copied", "fabric")

	for _, mb := range []int64{1, 4, 16, 64} {
		for _, tr := range []cxlfork.WorkflowTransport{cxlfork.PassByValue, cxlfork.PassByReference} {
			sys, err := cxlfork.NewSystem(cxlfork.DefaultConfig())
			if err != nil {
				log.Fatal(err)
			}
			res, err := sys.RunWorkflowChain(stages, mb<<20, tr)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %-14s %12v %9dMB %9dMB\n",
				fmt.Sprintf("%dMB", mb), res.Transport,
				res.Latency.Round(time.Microsecond),
				res.LocalBytesCopied>>20, res.FabricBytes>>20)
		}
	}
	fmt.Println("\nby-reference keeps every hop zero-copy: stages read the producer's CXL")
	fmt.Println("frames directly, so local memory stays flat while by-value pays a full")
	fmt.Println("payload copy per consuming stage.")
}
