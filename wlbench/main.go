// Command wlbench is the workload benchmark of the cxlfork simulator. It
// runs one named workload for a fixed wall-clock window, checks the
// simulator's outputs, and prints every metric as a line
//
//	<workload> <metric> <value> <unit>
//
// followed by one JSON object on the last line:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"setup_s": {"value": 0.0004, "unit": "s"}, ...}}
//
// Build and run it from the repository root with run.sh, which compiles
// this package into .bench_build:
//
//	bash wlbench/run.sh --workload served-mix --seed 7 --seconds 40 --trace 0
//
// # Workloads
//
//   - served-mix: capacity-planning sessions against an in-process
//     cxlserved handler (serve.NewManager with the cxlserved defaults,
//     serve.NewHandler on 127.0.0.1:0). One client runs a closed loop
//     over one connection: POST /v1/sessions?stream=1, read the NDJSON
//     stream through its eof frame, then post the next spec. The specs
//     run through a fixed cycle of sixteen: each of four function groups
//     under each of the four designs, at 50–200 rps for 5–10 virtual
//     seconds on the facade's default platform (2 nodes, 6 GiB DRAM,
//     8 GiB CXL); one session in four varies one knob (CXL latency,
//     cores, 3-device replication at factor 2, or a halved node budget).
//     The seed draws each session's workload seed (see specGen).
//     Calibration and cluster build dominate a session; replay is a
//     small share.
//   - azure-1m: the million-request Azure trace (400 virtual seconds,
//     Float+Json) through a 4-node CXLfork-MoW porter, exactly as
//     experiments.AzureBench replays it, whatever the seed (see
//     azureJob). Replay dominates.
//   - azure-observed: the same replay with the tracer, telemetry and
//     x-ray all enabled. The simulated results are identical; the
//     observers run on every event.
//
// Each Azure run sets the replay up once outside the window, to warm the
// process. Every job starts from a collected heap.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: median time until a server answers /healthz (served-mix;
//     a second server is started and stopped three times before each
//     session), or until the first replayed arrival: calibrate, build
//     the cluster, set up the porter and generate the trace (Azure; once
//     per timed replay).
//   - job_s: wall time of one job. For served-mix, a session from POST
//     to its result frame, taken as the median over the run's sessions
//     of each spec of the cycle and averaged over the sixteen specs; the
//     first cycle always runs whole, so every run weighs the same mix.
//     For the Azure workloads, the median porter.Run replay.
//   - peak_rss_mb: the process's maximum resident set.
//
// The run also prints, without gating them, every job's time, the
// median session and the session tail at the highest percentile with
// ten sessions beyond it,
// sessions_per_s, replay_events_per_s, error_rate, the virtual P99 and
// the fingerprints.
//
// # Per-layer metrics (--trace 1)
//
// A traced run records a span around each call the benchmark makes into
// a layer and writes the spans to .bench_build/spans/ when it ends. For
// served-mix it replays every served spec again in process through
// MeasureAll → cluster.New → porter.Setup → azure.Generate → porter.Run
// to split the session into layers, and checks that the replica's
// fingerprint equals the served one. The Azure workloads, which do not
// use the server, time the serve layer on one fixed probe session. The
// run ends with three layer probes: an LRU cache model over a working
// set twice its capacity, a 6 GiB frame pool, and an event engine
// stepped with a million events pending. Per-layer times are medians
// over jobs of each span's self time. obs.overhead_x is the observed
// replay's ns/event over that of one plain replay run before the window
// (1 where no observer runs); bench.trace_overhead_x is the traced run's
// wall time per job over the part of it an untraced run times.
//
// # Correctness
//
// Every session must complete and every arrival must be served. Every
// Azure replay, plain or observed, must reproduce the pinned fingerprint,
// arrival count and P99 (pins.json), and a plain one the pinned event
// count too, so an observer that changes a simulated result fails. At
// the pinned served-mix seed the session fingerprints must equal the
// pins. Any failure is named on standard error; the result then reads
// "correct": false and the command exits 1. --print-pins prints the
// pins for a seed. The tests (go test in this directory) check the
// generator, the statistics, the span arithmetic and the pins.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"syscall"
	"time"
)

// metric is one named value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	rec      *recorder // nil unless tracing
	pins     pins
	out      io.Writer

	e2e       map[string]metric
	layers    map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

// e2eMetric reports an end-to-end metric.
func (b *bench) e2eMetric(name string, v float64, unit string) {
	b.e2e[name] = metric{v, unit}
	b.info(name, v, unit)
}

// layer reports a per-layer metric.
func (b *bench) layer(name string, v float64, unit string) {
	b.layers[name] = metric{v, unit}
	b.info(name, v, unit)
}

// info prints a metric line without putting it in the result object.
func (b *bench) info(name string, v any, unit string) {
	if f, ok := v.(float64); ok {
		v = strconv.FormatFloat(f, 'f', -1, 64)
	}
	fmt.Fprintf(b.out, "%s %s %v %s\n", b.workload, name, v, unit)
}

// wrong records a correctness failure.
func (b *bench) wrong(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// window time-boxes the measured jobs: the first always runs, and each
// further one starts only if a job of the median length so far would
// still end inside the window.
type window struct {
	start time.Time
	limit time.Duration
	jobs  []float64 // seconds
}

func (w *window) more() bool {
	if len(w.jobs) == 0 {
		return true
	}
	return time.Since(w.start).Seconds()+median(w.jobs) <= w.limit.Seconds()
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"served-mix":     servedMix,
	"azure-1m":       func(b *bench) error { return azureReplay(b, false) },
	"azure-observed": func(b *bench) error { return azureReplay(b, true) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: served-mix, azure-1m, azure-observed")
	seed := fs.Int64("seed", 7, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 40, "wall-clock seconds to measure for")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	printPins := fs.Bool("print-pins", false, "print the pins for --seed instead of running a workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printPins {
		if err := writePins(stdout, *seed); err != nil {
			fmt.Fprintln(stderr, "wlbench:", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "wlbench: need --workload served-mix|azure-1m|azure-observed, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		out:      stdout,
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
	}
	if err := json.Unmarshal(defaultPins, &b.pins); err != nil {
		fmt.Fprintln(stderr, "wlbench: pins:", err)
		return 1
	}
	if *traced == 1 {
		b.rec = newRecorder()
	}

	if err := runWorkload(b); err != nil {
		fmt.Fprintf(stderr, "wlbench: %s: %v\n", b.workload, err)
		return 1
	}
	if b.rec != nil {
		probes(b)
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.json", b.workload, b.seed)
		if err := b.rec.write(path); err != nil {
			fmt.Fprintln(stderr, "wlbench: spans:", err)
			return 1
		}
		fmt.Fprintf(b.out, "%s spans %d written to %s\n", b.workload, len(b.rec.spans), path)
	} else {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			fmt.Fprintln(stderr, "wlbench: getrusage:", err)
			return 1
		}
		b.e2eMetric("peak_rss_mb", float64(ru.Maxrss)*1024/1e6, "MB") // Linux reports KiB
	}

	res := result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.e2e,
	}
	if b.rec != nil {
		res.Metrics = b.layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "wlbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	for _, p := range b.problems {
		fmt.Fprintf(stderr, "wlbench: %s: WRONG: %s\n", b.workload, p)
	}
	if !res.Correct {
		return 1
	}
	return 0
}
