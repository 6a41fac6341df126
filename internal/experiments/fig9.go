package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// Fig9Functions are the representative functions the paper shows
// (functions with identical behaviour are excluded for space, §7.1).
var Fig9Functions = []string{"Float", "Json", "Cnn", "Rnn", "BFS", "Bert"}

// Fig9Latencies is the swept CXL round-trip latency range: 400 ns
// (close to the 391 ns FPGA prototype) down to 100 ns (close to local
// DRAM).
var Fig9Latencies = []des.Time{
	400 * des.Nanosecond, 300 * des.Nanosecond, 200 * des.Nanosecond, 100 * des.Nanosecond,
}

// Fig9Point is one (function, latency) sample: CXLfork warm and cold
// execution time relative to local fork in an environment without CXL.
type Fig9Point struct {
	Function   string
	CXLLatency des.Time
	WarmRel    float64 // Fig. 9a
	ColdRel    float64 // Fig. 9b
}

// Fig9Result holds the sensitivity sweep.
type Fig9Result struct {
	Points []Fig9Point
}

// Fig9 sweeps the simulated CXL device latency (the role the paper's
// SST simulator plays, §6.1) and reports CXLfork performance relative
// to the no-CXL local-fork baseline.
func Fig9(p params.Params) (*Fig9Result, error) {
	var res Fig9Result
	for _, name := range Fig9Functions {
		spec, ok := faas.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fig9: unknown function %q", name)
		}
		// Baseline: local fork, unaffected by CXL latency.
		base, err := MeasureFunction(p, spec, []Scenario{ScenLocalFork})
		if err != nil {
			return nil, err
		}
		lf := base.ByScen[ScenLocalFork]
		for _, lat := range Fig9Latencies {
			pl := p
			pl.CXLLatency = lat
			// Faster simulated devices move pages faster too: scale the
			// per-page copy costs with the latency ratio (floored at the
			// local-DRAM copy cost).
			scale := float64(lat) / float64(p.CXLLatency)
			pl.CXLReadPage = maxTime(des.Time(float64(p.CXLReadPage)*scale), params.LocalCopyPage)
			pl.CXLWritePage = maxTime(des.Time(float64(p.CXLWritePage)*scale), params.LocalCopyPage)
			fm, err := MeasureFunction(pl, spec, []Scenario{ScenCXLfork})
			if err != nil {
				return nil, err
			}
			cx := fm.ByScen[ScenCXLfork]
			res.Points = append(res.Points, Fig9Point{
				Function:   name,
				CXLLatency: lat,
				WarmRel:    float64(cx.WarmSteady) / float64(lf.WarmSteady),
				ColdRel:    float64(cx.E2E) / float64(lf.E2E),
			})
		}
	}
	return &res, nil
}

func maxTime(a, b des.Time) des.Time {
	if a > b {
		return a
	}
	return b
}

// Render prints the two panels as (function × latency) tables.
func (r *Fig9Result) Render(w io.Writer) {
	for i, panel := range []struct {
		title string
		pick  func(pt Fig9Point) float64
	}{
		{"Figure 9a — warm execution time relative to local fork (no CXL)", func(pt Fig9Point) float64 { return pt.WarmRel }},
		{"Figure 9b — cold execution time relative to local fork (no CXL)", func(pt Fig9Point) float64 { return pt.ColdRel }},
	} {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, panel.title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "Function")
		for _, lat := range Fig9Latencies {
			fmt.Fprintf(tw, "\t%dns", int64(lat))
		}
		fmt.Fprintln(tw)
		for _, fn := range Fig9Functions {
			fmt.Fprint(tw, fn)
			for _, lat := range Fig9Latencies {
				for _, pt := range r.Points {
					if pt.Function == fn && pt.CXLLatency == lat {
						fmt.Fprintf(tw, "\t%.2f", panel.pick(pt))
					}
				}
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
}
