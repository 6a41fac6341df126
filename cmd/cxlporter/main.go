// Command cxlporter runs one CXLporter scaling scenario: it deploys the
// autoscaler with a chosen remote-fork design over a two-node simulated
// cluster, replays a bursty Azure-like trace, and prints latency
// percentiles and scheduler statistics.
//
// Usage:
//
//	cxlporter -mech cxlfork -rps 150 -duration 30 -mem 0.25
//	cxlporter -mech criu -functions Float,Json,Bert
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cxlfork"
)

// designs maps each -mech value onto its cxlfork.WorkloadDesigns entry.
var designs = map[string]string{
	"cxlfork":     "CXLfork",
	"cxlfork-mow": "CXLfork-MoW",
	"criu":        "CRIU-CXL",
	"mitosis":     "Mitosis-CXL",
}

func main() {
	mech := flag.String("mech", "cxlfork", "rfork design: cxlfork, cxlfork-mow, criu, mitosis")
	rps := flag.Float64("rps", 150, "aggregate request rate")
	duration := flag.Float64("duration", 30, "trace duration in virtual seconds")
	memFrac := flag.Float64("mem", 1.0, "node memory budget as a fraction of 12 GB")
	functions := flag.String("functions", "", "comma-separated workload mix (default: full suite)")
	seed := flag.Int64("seed", 7, "trace and jitter seed (0: the platform seed)")
	traceIn := flag.String("trace", "", "replay an explicit trace from a seconds,function CSV file")
	traceOut := flag.String("save-trace", "", "write the generated trace to a CSV file and exit")
	flag.Parse()

	cfg := cxlfork.DefaultConfig()
	wl := cxlfork.Workload{
		Design:          designs[*mech],
		RPS:             *rps,
		Duration:        time.Duration(*duration * float64(time.Second)),
		NodeBudgetBytes: int64(*memFrac * float64(12<<30)),
		Seed:            *seed,
	}
	if wl.Design == "" {
		fmt.Fprintf(os.Stderr, "cxlporter: unknown mechanism %q\n", *mech)
		os.Exit(2)
	}
	fns := cxlfork.FunctionNames()
	if *functions != "" {
		wl.Functions = strings.Split(*functions, ",")
		fns = wl.Functions
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlporter: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		// Seed 0 falls back to cfg.Seed, as it does in RunWorkload.
		if err := cxlfork.SaveTraceCSV(f, fns, *rps, wl.Duration, cmp.Or(*seed, cfg.Seed)); err != nil {
			fmt.Fprintf(os.Stderr, "cxlporter: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace to %s\n", *traceOut)
		return
	}
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlporter: %v\n", err)
			os.Exit(1)
		}
		trace, err := cxlfork.LoadTraceCSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlporter: %v\n", err)
			os.Exit(1)
		}
		wl.Trace = trace
	}

	fmt.Printf("calibrating profiles and replaying %.0f RPS for %.0fs with %s (mem budget %.0f%%)...\n",
		*rps, *duration, wl.Design, 100**memFrac)
	res, err := cxlfork.RunWorkload(cfg, wl, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlporter: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("\ncompleted %d requests  P50 %v  P99 %v  mean %v\n",
		res.Completed, res.P50.Round(time.Millisecond), res.P99.Round(time.Millisecond),
		res.Mean.Round(time.Millisecond))
	fmt.Printf("warm starts %d, checkpoint restores %d, scratch cold starts %d\n",
		res.WarmStarts, res.ColdForks, res.ScratchCold)
	fmt.Printf("evictions %d, tiering promotions %d, throughput %.1f req/s\n",
		res.IdleEvictions, res.Promotions, res.Throughput)
	writeP99s(os.Stdout, fns, res.PerFunction)
}

// writeP99s prints the per-function P99 block in workload-mix order,
// skipping functions with no completions (absent from per).
func writeP99s(w io.Writer, fns []string, per map[string]cxlfork.FunctionLatency) {
	fmt.Fprintln(w, "\nper-function P99:")
	for _, fn := range fns {
		if l, ok := per[fn]; ok {
			fmt.Fprintf(w, "  %-10s %v\n", fn, l.P99.Round(time.Millisecond))
		}
	}
}
