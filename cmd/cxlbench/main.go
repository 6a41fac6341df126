// Command cxlbench is the performance-trajectory harness of the
// simulator (DESIGN.md §13). It replays the million-request Azure trace
// through a full porter cluster, samples the pooled event path's
// steady-state allocation cost, and writes both as BENCH_0007.json. With
// -check it instead compares a fresh run against the committed baseline
// and exits nonzero on regression: fingerprint or event-count drift
// (machine-independent — always enforced), allocation-ceiling breaches,
// or throughput collapse beyond the wall-clock tolerance.
//
// Usage:
//
//	cxlbench                          # write BENCH_0007.json
//	cxlbench -check                   # gate against BENCH_0007.json
//	cxlbench -check -o latest.json    # gate and keep the fresh report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"cxlfork/internal/des"
	"cxlfork/internal/experiments"
	"cxlfork/internal/params"
)

// trajectorySchema versions the BENCH_0007.json layout; -check refuses
// to compare reports across schema changes.
const trajectorySchema = "cxlbench-trajectory/2"

// trajAzure is the million-request cluster replay. Completed, events,
// sim_ns and the fingerprint are virtual-time facts — byte-identical on
// any machine; wall_ns and the derived rates are host measurements and
// only gated within a generous tolerance.
type trajAzure struct {
	Nodes            int     `json:"nodes"`
	Arrivals         int     `json:"arrivals"`
	Completed        int     `json:"completed"`
	Events           uint64  `json:"events"`
	SimNs            int64   `json:"sim_ns"`
	WallNs           int64   `json:"wall_ns"`
	EventsPerSec     float64 `json:"events_per_sec"`
	SimSecPerWallSec float64 `json:"sim_sec_per_wall_sec"`
	AllocsPerEvent   float64 `json:"allocs_per_event"`
	Fingerprint      string  `json:"fingerprint"`
}

// trajReport is the BENCH_0007.json schema.
type trajReport struct {
	Schema string    `json:"schema"`
	Azure  trajAzure `json:"azure"`
	// SteadyAllocsPerEvent is the pooled-engine allocation floor: the
	// objects allocated per dispatched event once the free list is
	// primed (the pooling contract says ~0).
	SteadyAllocsPerEvent float64 `json:"steady_allocs_per_event"`
}

// allocCeilingSlack is how far allocs-per-event may drift above the
// committed baseline before -check fails. Allocation counts are
// deterministic per Go version but not across them, so the gate
// carries slack instead of demanding equality.
const allocCeilingSlack = 0.05

// fpHex renders fingerprints as hex strings: JSON numbers are float64
// and cannot carry 64 bits exactly.
func fpHex(fp uint64) string { return fmt.Sprintf("%#016x", fp) }

// buildTrajectory runs the full measurement suite.
func buildTrajectory(p params.Params, verbose io.Writer) (*trajReport, error) {
	rep := &trajReport{Schema: trajectorySchema}
	az, err := experiments.AzureBench(p, experiments.DefaultAzureBenchConfig())
	if err != nil {
		return nil, err
	}
	rep.Azure = trajAzure{
		Nodes:            az.Cfg.Nodes,
		Arrivals:         az.Arrivals,
		Completed:        az.Completed,
		Events:           az.Events,
		SimNs:            int64(az.SimTime),
		WallNs:           az.Wall.Nanoseconds(),
		EventsPerSec:     az.EventsPerSec(),
		SimSecPerWallSec: az.SimSecPerWallSec(),
		AllocsPerEvent:   az.AllocsPerEvent,
		Fingerprint:      fpHex(az.Fingerprint),
	}
	fmt.Fprintf(verbose, "azure  %d arrivals, %d completed in %.1fs wall  %s\n",
		az.Arrivals, az.Completed, az.Wall.Seconds(), rep.Azure.Fingerprint)

	rep.SteadyAllocsPerEvent = steadyAllocsPerEvent()
	fmt.Fprintf(verbose, "allocs steady %.4f/event, azure %.4f/event\n",
		rep.SteadyAllocsPerEvent, rep.Azure.AllocsPerEvent)
	return rep, nil
}

// steadyAllocsPerEvent measures the pooled dispatch path: a warmed
// self-rescheduling event chain must allocate ~nothing per event.
func steadyAllocsPerEvent() float64 {
	const warm, total = 1000, 101000
	e := des.NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < total {
			e.After(des.Microsecond, tick)
		}
	}
	e.After(des.Microsecond, tick)
	for count < warm && e.Step() {
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.Run()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(total-warm)
}

// checkReport compares a fresh trajectory against the committed
// baseline and returns every violation. Virtual-time facts must match
// exactly; host-dependent rates gate within tol (fresh must reach
// tol × baseline; tol <= 0 disables rate gating); allocation stats may
// drift up by at most allocCeilingSlack.
func checkReport(fresh, base *trajReport, tol float64) []string {
	var v []string
	bad := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	if fresh.Schema != base.Schema {
		bad("schema %q != baseline %q", fresh.Schema, base.Schema)
		return v
	}
	if fresh.Azure.Fingerprint != base.Azure.Fingerprint {
		bad("azure: fingerprint %s != baseline %s", fresh.Azure.Fingerprint, base.Azure.Fingerprint)
	}
	if fresh.Azure.Events != base.Azure.Events || fresh.Azure.Completed != base.Azure.Completed {
		bad("azure: events/completed %d/%d != baseline %d/%d",
			fresh.Azure.Events, fresh.Azure.Completed, base.Azure.Events, base.Azure.Completed)
	}
	if tol > 0 && fresh.Azure.EventsPerSec < tol*base.Azure.EventsPerSec {
		bad("azure: %.2fM ev/s below %.0f%% of baseline %.2fM",
			fresh.Azure.EventsPerSec/1e6, 100*tol, base.Azure.EventsPerSec/1e6)
	}
	if fresh.Azure.AllocsPerEvent > base.Azure.AllocsPerEvent+allocCeilingSlack {
		bad("azure: %.4f allocs/event breaches baseline %.4f (+%.2f slack)",
			fresh.Azure.AllocsPerEvent, base.Azure.AllocsPerEvent, allocCeilingSlack)
	}
	if fresh.SteadyAllocsPerEvent > base.SteadyAllocsPerEvent+allocCeilingSlack {
		bad("engine: steady state %.4f allocs/event breaches baseline %.4f (+%.2f slack)",
			fresh.SteadyAllocsPerEvent, base.SteadyAllocsPerEvent, allocCeilingSlack)
	}
	return v
}

// gate runs the -check pipeline: load the baseline, compare, report.
// It returns the process exit code so a test can doctor a baseline and
// prove regressions exit nonzero.
func gate(fresh *trajReport, baselinePath string, tol float64, stderr io.Writer) int {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "cxlbench: baseline: %v\n", err)
		return 1
	}
	var base trajReport
	if err := json.Unmarshal(blob, &base); err != nil {
		fmt.Fprintf(stderr, "cxlbench: baseline %s: %v\n", baselinePath, err)
		return 1
	}
	violations := checkReport(fresh, &base, tol)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(stderr, "cxlbench: REGRESSION: %s\n", v)
		}
		fmt.Fprintf(stderr, "cxlbench: %d regression(s) vs %s\n", len(violations), baselinePath)
		return 1
	}
	fmt.Fprintf(stderr, "cxlbench: trajectory matches %s\n", baselinePath)
	return 0
}

func main() {
	check := flag.Bool("check", false, "compare a fresh trajectory against -baseline and exit nonzero on regression")
	baseline := flag.String("baseline", "BENCH_0007.json", "committed trajectory baseline for -check")
	tol := flag.Float64("tolerance", 0.2, "events/sec floor as a fraction of baseline (0 disables rate gating)")
	out := flag.String("o", "", "output JSON path (- for stdout; default BENCH_0007.json, none for -check)")
	flag.Parse()

	rep, err := buildTrajectory(experiments.ExpParams(), os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		writeJSON(rep, *out)
	} else if !*check {
		writeJSON(rep, "BENCH_0007.json")
	}
	if *check {
		os.Exit(gate(rep, *baseline, *tol, os.Stderr))
	}
}

// writeJSON marshals the report to path ("-" for stdout) or dies.
func writeJSON(rep *trajReport, path string) {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if path == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
