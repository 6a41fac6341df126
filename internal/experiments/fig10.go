package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"cxlfork/internal/des"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
	"cxlfork/internal/rfork"
)

// Fig10Designs lists the compared designs in presentation order.
var Fig10Designs = []Design{DesignCRIU, DesignMitosis, DesignCXLforkMoW, DesignCXLfork}

// Fig10Config tunes the scaling experiment.
type Fig10Config struct {
	// Workload is the replayed trace (paper: 150 rps). Its KeepAlive
	// matters: the bursty trace has ~10 s calm periods between spikes,
	// and a window shorter than the gaps makes every spike pay cold
	// starts — the regime Fig. 10 studies ("the benefit of rfork comes
	// from mitigating cold starts").
	Workload
	// MemoryFractions are the node budget scalings of Fig. 10c.
	MemoryFractions []float64
	// BaseBudgetBytes is the per-node budget at fraction 1.0.
	BaseBudgetBytes int64
}

// DefaultFig10Config returns the paper's configuration scaled to the
// simulated two-node cluster.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		Workload: Workload{
			RPS:       150,
			Duration:  60 * des.Second,
			KeepAlive: 12 * des.Second,
			Seed:      7,
		},
		MemoryFractions: []float64{1.0, 0.5, 0.25},
		BaseBudgetBytes: 12 << 30,
	}
}

// Fig10Run is one (design, memory fraction) replay.
type Fig10Run struct {
	Design   Design
	MemFrac  float64
	Results  porter.Results
	P99, P50 des.Time
}

// Fig10Result holds every replay plus the profiles used.
type Fig10Result struct {
	Cfg  Fig10Config
	Runs []Fig10Run
	// PerFunction P99/P50 for the abundant-memory runs (Fig. 10a/b).
	Functions []string
}

// BuildProfiles converts cold-start measurements into porter profiles.
func BuildProfiles(ms []*FnMeasurement) map[porter.ProfileKey]porter.Profile {
	out := make(map[porter.ProfileKey]porter.Profile)
	scenKey := map[Scenario]porter.ProfileKey{
		ScenCRIU:       {Mechanism: "CRIU-CXL", Policy: rfork.MigrateOnWrite},
		ScenMitosis:    {Mechanism: "Mitosis-CXL", Policy: rfork.MigrateOnWrite},
		ScenCXLfork:    {Mechanism: "CXLfork", Policy: rfork.MigrateOnWrite},
		ScenCXLforkMoA: {Mechanism: "CXLfork", Policy: rfork.MigrateOnAccess},
		ScenCXLforkHT:  {Mechanism: "CXLfork", Policy: rfork.HybridTiering},
	}
	for _, fm := range ms {
		cold, haveCold := fm.ByScen[ScenCold]
		for scen, key := range scenKey {
			m, ok := fm.ByScen[scen]
			if !ok {
				continue
			}
			key.Function = fm.Spec.Name
			pr := porter.Profile{
				Restore:    m.Restore,
				ColdExec:   m.E2E - m.Restore,
				WarmExec:   m.WarmSteady,
				LocalPages: m.LocalPages,
				ColdInit:   fm.ColdInit,
			}
			if scen == ScenMitosis {
				// The fault time of Mitosis' cold start is remote page
				// copies served by the parent node.
				pr.RemoteCopy = m.FaultTime
			}
			if haveCold {
				pr.ColdInitExec = cold.E2E - cold.Restore
				pr.FootprintPages = cold.LocalPages
			}
			out[key] = pr
		}
	}
	return out
}

// Fig10 runs the CXLporter scaling comparison: every design at every
// memory fraction, replaying the same bursty trace.
func Fig10(p params.Params, cfg Fig10Config) (*Fig10Result, error) {
	// Calibrate profiles once (mechanistic single-instance runs).
	specs, profiles, err := calibrated(p, cfg.Workload, AllScenarios)
	if err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	// The design×fraction grid, fraction-major and design-minor.
	nd := len(Fig10Designs)
	runs, err := sweep(p, len(cfg.MemoryFractions)*nd, func(i int) (Fig10Run, error) {
		d, frac := Fig10Designs[i%nd], cfg.MemoryFractions[i/nd]
		leg, err := NewLeg(p, 2, d, cfg.Workload, int64(float64(cfg.BaseBudgetBytes)*frac), specs, profiles)
		if err != nil {
			return Fig10Run{}, fmt.Errorf("fig10 %s@%.0f%%: %w", d, 100*frac, err)
		}
		results := leg.Run()
		return Fig10Run{
			Design:  d,
			MemFrac: frac,
			Results: results,
			P99:     results.Overall.P99(),
			P50:     results.Overall.P50(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Cfg: cfg, Functions: SpecNames(specs), Runs: runs}, nil
}

// run returns the replay for (design, frac), or nil.
func (r *Fig10Result) run(d Design, frac float64) *Fig10Run {
	for i := range r.Runs {
		if r.Runs[i].Design == d && r.Runs[i].MemFrac == frac {
			return &r.Runs[i]
		}
	}
	return nil
}

// Render prints Fig. 10a (P99, abundant memory), Fig. 10b (P50), and
// Fig. 10c (P99/P50 under 100/50/25% memory), all normalized to
// CRIU-CXL as in the paper.
func (r *Fig10Result) Render(w io.Writer) {
	full := 1.0
	criuRun := r.run(DesignCRIU, full)
	if criuRun == nil {
		fmt.Fprintln(w, "fig10: no abundant-memory CRIU run")
		return
	}

	for i, panel := range []struct {
		title string
		pctl  float64
	}{
		{"Figure 10a — P99 latency, abundant memory (normalized to CRIU-CXL; absolute CRIU on right)", 99},
		{"Figure 10b — P50 latency, abundant memory (normalized to CRIU-CXL; absolute CRIU on right)", 50},
	} {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, panel.title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Function\tCRIU-CXL\tMitosis-CXL\tCXLfork-MoW\tCXLfork\tCRIU abs")
		fns := append([]string(nil), r.Functions...)
		sort.Strings(fns)
		for _, fn := range fns {
			base := criuRun.Results.PerFunction[fn]
			if base == nil || base.Count() == 0 {
				continue
			}
			b := base.Percentile(panel.pctl)
			fmt.Fprint(tw, fn)
			for _, d := range Fig10Designs {
				run := r.run(d, full)
				if run == nil || run.Results.PerFunction[fn] == nil || run.Results.PerFunction[fn].Count() == 0 {
					fmt.Fprint(tw, "\t-")
					continue
				}
				v := run.Results.PerFunction[fn].Percentile(panel.pctl)
				fmt.Fprintf(tw, "\t%.2f", float64(v)/float64(b))
			}
			fmt.Fprintf(tw, "\t%s\n", compact(b))
		}
		tw.Flush()
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 10c — overall latency under memory pressure (normalized to CRIU-CXL at the same fraction)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Memory\tPercentile\tCRIU-CXL\tMitosis-CXL\tCXLfork-MoW\tCXLfork\tCRIU abs\tCXLfork thpt/CRIU")
	for _, frac := range r.Cfg.MemoryFractions {
		base := r.run(DesignCRIU, frac)
		if base == nil {
			continue
		}
		for _, pctl := range []float64{99, 50} {
			b := base.Results.Overall.Percentile(pctl)
			fmt.Fprintf(tw, "%.0f%%\tP%.0f", 100*frac, pctl)
			for _, d := range Fig10Designs {
				run := r.run(d, frac)
				if run == nil || b == 0 {
					fmt.Fprint(tw, "\t-")
					continue
				}
				v := run.Results.Overall.Percentile(pctl)
				fmt.Fprintf(tw, "\t%.2f", float64(v)/float64(b))
			}
			thpt := "-"
			if cx := r.run(DesignCXLfork, frac); cx != nil && base.Results.Throughput() > 0 {
				thpt = fmt.Sprintf("%.2fx", cx.Results.Throughput()/base.Results.Throughput())
			}
			fmt.Fprintf(tw, "\t%s\t%s\n", compact(b), thpt)
		}
	}
	tw.Flush()

	// Headline averages with abundant memory (paper: Mitosis −51%, CXLfork −70% P99 vs CRIU).
	var mitP99, cxlP99 float64
	var n int
	for _, fn := range r.Functions {
		base := criuRun.Results.PerFunction[fn]
		mit := r.run(DesignMitosis, full)
		cxl := r.run(DesignCXLfork, full)
		if base == nil || base.Count() == 0 || mit == nil || cxl == nil {
			continue
		}
		mr, cr := mit.Results.PerFunction[fn], cxl.Results.PerFunction[fn]
		if mr == nil || cr == nil || mr.Count() == 0 || cr.Count() == 0 {
			continue
		}
		b := float64(base.P99())
		mitP99 += 1 - float64(mr.P99())/b
		cxlP99 += 1 - float64(cr.P99())/b
		n++
	}
	if n > 0 {
		fmt.Fprintf(w, "\nP99 reduction vs CRIU (abundant memory): Mitosis %.0f%% (paper 51%%), CXLfork %.0f%% (paper 70%%)\n",
			100*mitP99/float64(n), 100*cxlP99/float64(n))
	}

	for i := range r.Runs {
		run := &r.Runs[i]
		renderObservability(w, fmt.Sprintf("%s@%.0f%%: ", run.Design, 100*run.MemFrac), run.Results)
	}
}
