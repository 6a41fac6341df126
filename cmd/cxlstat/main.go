// Command cxlstat replays a telemetry-enabled Fig. 10 trace and
// renders the sampled metric timeline (DESIGN.md §11): a summary
// table with per-series sparklines, a -follow style tick-by-tick
// replay over the finished run, or raw exports in Prometheus,
// OpenMetrics, CSV, or JSON form.
//
// Usage:
//
//	cxlstat                              # summary table + sparklines
//	cxlstat -follow -filter porter_      # replay porter series over time
//	cxlstat -format prom -o metrics.prom # Prometheus text exposition
//	cxlstat -format prom -check          # validate the exposition shape
//	cxlstat -rps 40 -duration 10 -fn Float,Json -slo 0.8 -drive
//	cxlstat -xray -switches 2 -devices 4 -rf 3  # latency blame + link heatmap
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"cxlfork/internal/des"
	"cxlfork/internal/experiments"
	"cxlfork/internal/telemetry"
)

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

func main() {
	rps := flag.Float64("rps", 60, "aggregate request rate of the replayed trace")
	duration := flag.Float64("duration", 20, "trace duration in seconds")
	fns := flag.String("fn", "", "comma-separated function subset (default: full suite)")
	policy := flag.String("policy", "", "eviction policy override")
	seed := flag.Int64("seed", 7, "trace seed")
	sample := flag.Float64("sample", 100, "sampling period in virtual milliseconds")
	frac := flag.Float64("devfrac", 0.5, "device size as a fraction of the suite footprint (0 keeps defaults)")
	slo := flag.Float64("slo", 0, "occupancy SLO target (0 disables the objective)")
	drive := flag.Bool("drive", false, "let a firing occupancy alert drive early reclaim")
	format := flag.String("format", "summary", "output: summary, prom, openmetrics, csv, json")
	out := flag.String("o", "", "write output to file instead of stdout")
	follow := flag.Bool("follow", false, "replay the sampled timeline tick by tick")
	width := flag.Int("width", 40, "sparkline / follow downsample width")
	filter := flag.String("filter", "", "only series whose key contains this substring")
	check := flag.Bool("check", false, "self-validate the Prometheus exposition and exit non-zero on malformed lines")
	devices := flag.Int("devices", 0, "split the CXL capacity into this many pool devices (0 keeps the single device)")
	rf := flag.Int("rf", 0, "replicate each checkpoint onto this many pool devices (0 keeps the default)")
	switches := flag.Int("switches", 0, "run on an explicit grid fabric topology with this many switches (0 keeps the flat model)")
	placement := flag.String("placement", "", "replica placement policy over the topology: hash or locality")
	xrayOn := flag.Bool("xray", false, "append the critical-path latency blame report (DESIGN.md §16)")
	flag.Parse()

	var fnList []string
	if *fns != "" {
		fnList = strings.Split(*fns, ",")
	}
	res, err := experiments.TelemetryTrace(experiments.ExpParams(), experiments.TelemetryTraceConfig{
		Workload: experiments.Workload{
			RPS:       *rps,
			Duration:  des.Time(*duration * float64(des.Second)),
			Functions: fnList,
			Seed:      *seed,
		},
		DeviceFrac:        *frac,
		Policy:            *policy,
		SampleEvery:       des.Time(*sample * float64(des.Millisecond)),
		SLOOccupancy:      *slo,
		SLODrive:          *drive,
		Devices:           *devices,
		ReplicationFactor: *rf,
		Switches:          *switches,
		Placement:         *placement,
		XRay:              *xrayOn,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlstat: %v\n", err)
		os.Exit(1)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlstat: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	reg := res.Registry
	switch {
	case *check:
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			fmt.Fprintf(os.Stderr, "cxlstat: %v\n", err)
			os.Exit(1)
		}
		if n := checkExposition(os.Stderr, buf.Bytes()); n > 0 {
			fmt.Fprintf(os.Stderr, "cxlstat: exposition check FAILED: %d malformed lines\n", n)
			os.Exit(1)
		}
		bw.Write(buf.Bytes())
		fmt.Fprintf(os.Stderr, "cxlstat: exposition check ok (%d series, %d ticks)\n", len(reg.Series()), reg.Ticks())
	case *follow:
		renderFollow(bw, reg, *filter, *width)
	case *format == "summary":
		renderSummary(bw, reg, res, *filter, *width)
		if *xrayOn {
			fmt.Fprintln(bw)
			err = res.XRay.WriteText(bw)
		}
	case *format == "prom":
		err = reg.WritePrometheus(bw)
	case *format == "openmetrics":
		err = reg.WriteOpenMetrics(bw)
	case *format == "csv":
		err = reg.WriteCSV(bw)
	case *format == "json":
		err = reg.WriteJSON(bw)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlstat: %v\n", err)
		os.Exit(1)
	}
}

// filtered returns the registry's series whose key contains the
// filter substring, in export order.
func filtered(reg *telemetry.Registry, filter string) []*telemetry.Series {
	var out []*telemetry.Series
	for _, s := range reg.Series() {
		if filter == "" || strings.Contains(s.Key(), filter) {
			out = append(out, s)
		}
	}
	return out
}

// sparkline downsamples a series' values into width buckets and
// renders each bucket's mean on the shared [min,max] scale.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	if width > len(vals) {
		width = len(vals)
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		lo, hi := i*len(vals)/width, (i+1)*len(vals)/width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, v := range vals[lo:hi] {
			sum += v
		}
		mean := sum / float64(hi-lo)
		idx := 0
		if max > min {
			idx = int((mean - min) / (max - min) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func renderSummary(w io.Writer, reg *telemetry.Registry, res *experiments.TelemetryTraceResult, filter string, width int) {
	fmt.Fprintf(w, "cxlstat — %d ticks every %s, %d series, %d ring drops\n",
		reg.Ticks(), compactTime(reg.SampleEvery()), len(reg.Series()), reg.Dropped())
	if res.DeviceBytes > 0 {
		fmt.Fprintf(w, "device %d MiB", res.DeviceBytes>>20)
		if res.FootprintBytes > 0 {
			fmt.Fprintf(w, " (footprint %d MiB)", res.FootprintBytes>>20)
		}
		fmt.Fprintln(w)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Series\tKind\tN\tLast\tMin\tMax\tTimeline")
	for _, s := range filtered(reg, filter) {
		samples := s.Samples()
		vals := make([]float64, len(samples))
		min, max := 0.0, 0.0
		for i, sm := range samples {
			vals[i] = sm.V
			if i == 0 || sm.V < min {
				min = sm.V
			}
			if i == 0 || sm.V > max {
				max = sm.V
			}
		}
		last := 0.0
		if n := len(vals); n > 0 {
			last = vals[n-1]
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\n",
			s.Key(), s.Kind(), len(vals), fmtVal(last), fmtVal(min), fmtVal(max),
			sparkline(vals, width))
	}
	tw.Flush()
	if len(res.Alerts) > 0 {
		fmt.Fprintln(w, "\nSLO alerts:")
		for _, a := range res.Alerts {
			state := "RESOLVED"
			if a.Firing {
				state = "FIRING"
			}
			fmt.Fprintf(w, "  %8s  %s %s (burn short %.1f, long %.1f)\n",
				compactTime(a.At), a.Objective, state, a.Short, a.Long)
		}
	}
}

// renderFollow replays the sampled timeline tick by tick, one row per
// sample time, one column per filtered series — a tail -f over the
// finished run's virtual clock.
func renderFollow(w io.Writer, reg *telemetry.Registry, filter string, width int) {
	series := filtered(reg, filter)
	if len(series) == 0 {
		fmt.Fprintln(w, "cxlstat: no series match the filter")
		return
	}
	if len(series) > 6 {
		fmt.Fprintf(w, "cxlstat: %d series match; showing first 6 (narrow with -filter)\n", len(series))
		series = series[:6]
	}
	times := map[des.Time]bool{}
	byT := make([]map[des.Time]float64, len(series))
	for i, s := range series {
		byT[i] = map[des.Time]float64{}
		for _, sm := range s.Samples() {
			times[sm.T] = true
			byT[i][sm.T] = sm.V
		}
	}
	var order []des.Time
	for t := range times {
		order = append(order, t)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	// Downsample to ~width rows so a long run stays readable.
	step := 1
	if width > 0 && len(order) > width {
		step = (len(order) + width - 1) / width
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "t")
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s", s.Key())
	}
	fmt.Fprintln(tw)
	for i := 0; i < len(order); i += step {
		t := order[i]
		fmt.Fprint(tw, compactTime(t))
		for j := range series {
			if v, ok := byT[j][t]; ok {
				fmt.Fprintf(tw, "\t%s", fmtVal(v))
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

var (
	promComment = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	promSample  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)? [0-9]+$`)
)

// checkExposition validates every line of a Prometheus text
// exposition against the line grammar and returns the number of
// malformed lines, reporting each to w.
func checkExposition(w io.Writer, b []byte) int {
	bad := 0
	for i, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		if line == "" || promComment.MatchString(line) || promSample.MatchString(line) {
			continue
		}
		bad++
		fmt.Fprintf(w, "cxlstat: line %d malformed: %q\n", i+1, line)
	}
	return bad
}

// compactTime renders a virtual time compactly (ms under a second,
// else seconds).
func compactTime(t des.Time) string {
	if t < des.Second {
		return fmt.Sprintf("%dms", t/des.Millisecond)
	}
	return fmt.Sprintf("%.2fs", float64(t)/float64(des.Second))
}
