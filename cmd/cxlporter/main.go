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
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cxlfork"
)

func main() {
	mech := flag.String("mech", "cxlfork", "rfork design: cxlfork, cxlfork-mow, criu, mitosis")
	rps := flag.Float64("rps", 150, "aggregate request rate")
	duration := flag.Float64("duration", 30, "trace duration in virtual seconds")
	memFrac := flag.Float64("mem", 1.0, "node memory budget as a fraction of 12 GB")
	functions := flag.String("functions", "", "comma-separated workload mix (default: full suite)")
	seed := flag.Int64("seed", 7, "trace seed")
	traceIn := flag.String("trace", "", "replay an explicit trace from a seconds,function CSV file")
	traceOut := flag.String("save-trace", "", "write the generated trace to a CSV file and exit")
	flag.Parse()

	cfg := cxlfork.AutoscalerConfig{
		RPS:        *rps,
		Duration:   time.Duration(*duration * float64(time.Second)),
		NodeBudget: int64(*memFrac * float64(12<<30)),
		Seed:       *seed,
	}
	fns := cxlfork.FunctionNames()
	if *functions != "" {
		cfg.Functions = strings.Split(*functions, ",")
		fns = cfg.Functions
	}
	switch *mech {
	case "cxlfork":
		cfg.Mechanism = cxlfork.CXLfork
		cfg.DynamicTiering = true
	case "cxlfork-mow":
		cfg.Mechanism = cxlfork.CXLfork
		pol := cxlfork.MigrateOnWrite
		cfg.StaticPolicy = &pol
	case "criu":
		cfg.Mechanism = cxlfork.CRIUCXL
	case "mitosis":
		cfg.Mechanism = cxlfork.MitosisCXL
	default:
		fmt.Fprintf(os.Stderr, "cxlporter: unknown mechanism %q\n", *mech)
		os.Exit(2)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlporter: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := cxlfork.SaveTraceCSV(f, fns, *rps, cfg.Duration, *seed); err != nil {
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
		cfg.Trace = trace
	}

	sys := cxlfork.NewSystem(cxlfork.DefaultConfig())
	fmt.Printf("calibrating profiles and replaying %.0f RPS for %.0fs with %s (mem budget %.0f%%)...\n",
		*rps, *duration, cfg.Mechanism, 100**memFrac)
	res, err := sys.RunAutoscaler(cfg)
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
		res.Evictions, res.Promotions, res.Throughput)
	writeP99s(os.Stdout, fns, res.PerFunctionP99)
}

// writeP99s prints the per-function P99 block in workload-mix order,
// skipping functions with no completions (absent from p99).
func writeP99s(w io.Writer, fns []string, p99 map[string]time.Duration) {
	fmt.Fprintln(w, "\nper-function P99:")
	for _, fn := range fns {
		if d, ok := p99[fn]; ok {
			fmt.Fprintf(w, "  %-10s %v\n", fn, d.Round(time.Millisecond))
		}
	}
}
