// Command cxlsim regenerates the paper's tables and figures from the
// simulated platform. Each experiment prints the same rows/series the
// paper reports (see DESIGN.md §3 for the index).
//
// Usage:
//
//	cxlsim -exp fig7a            # one experiment
//	cxlsim -exp all              # everything (slow)
//	cxlsim -exp fig1 -invocations 32
//	cxlsim -exp fig10 -rps 150 -duration 60
//	cxlsim -exp slo -telemetry      # burn-rate alerts driving reclaim
//	cxlsim -exp fabric -workers 8   # topology sweep (DESIGN.md §14)
//	cxlsim -exp xray                # critical-path blame (DESIGN.md §16)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cxlfork/internal/des"
	"cxlfork/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id: table1, fig1, fig3c, fig6, fig7a, fig7b, fig8, fig9, fig10, ckpt, faults, scale, workflow, lanes, capacity, slo, chaos, fabric, xray, all")
	lanesFn := flag.String("lanes-fn", "Float", "lanes: function to sweep")
	invocations := flag.Int("invocations", 128, "fig1: invocations per function")
	rps := flag.Float64("rps", 0, "porter experiments (fig10, capacity, slo, chaos, fabric, xray): aggregate request rate; 0 keeps the experiment's own")
	duration := flag.Float64("duration", 0, "porter experiments (fig10, capacity, slo, chaos, fabric, xray): trace duration in seconds; 0 keeps the experiment's own")
	telem := flag.Bool("telemetry", false, "enable virtual-time metric sampling (DESIGN.md §11)")
	workers := flag.Int("workers", 1, "simulation workers (DESIGN.md §13); results are byte-identical at any count")
	flag.Parse()

	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	p := experiments.ExpParams()
	if *telem {
		p.TelemetryEnabled = true
	}
	if *workers > 1 {
		p.SimWorkers = *workers
	}
	w := os.Stdout
	// workload applies -rps and -duration to a porter experiment's
	// trace.
	workload := func(wl *experiments.Workload) {
		if *rps > 0 {
			wl.RPS = *rps
		}
		if *duration > 0 {
			wl.Duration = des.Time(*duration * float64(des.Second))
		}
	}

	run := func(id string) error {
		var r interface{ Render(io.Writer) }
		var err error
		switch id {
		case "table1":
			experiments.Table1Render(w)
			return nil
		case "fig1":
			r, err = experiments.Fig1(p, *invocations)
		case "fig3c":
			r, err = experiments.Fig3c(p)
		case "fig6":
			r, err = experiments.Fig6(p)
		case "fig7a", "fig7b", "fig7":
			r, err = experiments.Fig7(p)
		case "fig8":
			r, err = experiments.Fig8(p)
		case "fig9":
			r, err = experiments.Fig9(p)
		case "fig10", "fig10ab", "fig10c":
			cfg := experiments.DefaultFig10Config()
			workload(&cfg.Workload)
			r, err = experiments.Fig10(p, cfg)
		case "ckpt":
			r, err = experiments.Ckpt(p)
		case "faults":
			r, err = experiments.Faults(p)
		case "scale":
			r, err = experiments.Scale(p, "Rnn", 4, nil)
		case "workflow":
			r, err = experiments.Workflow(p, 4, nil)
		case "capacity":
			cfg := experiments.DefaultCapacityConfig()
			workload(&cfg.Workload)
			r, err = experiments.Capacity(p, cfg)
		case "slo":
			cfg := experiments.DefaultSLOConfig()
			workload(&cfg.Workload)
			r, err = experiments.SLO(p, cfg)
		case "chaos":
			cfg := experiments.DefaultChaosConfig()
			workload(&cfg.Workload)
			r, err = experiments.Chaos(p, cfg)
		case "lanes":
			ls, err := experiments.LaneSweep(p, *lanesFn, nil)
			if err != nil {
				return err
			}
			fmt.Fprint(w, experiments.FormatLaneSweep(ls))
			return nil
		case "fabric":
			cfg := experiments.DefaultFabricExpConfig()
			workload(&cfg.Workload)
			r, err = experiments.FabricSweep(p, cfg)
		case "xray":
			cfg := experiments.DefaultXRayExpConfig()
			workload(&cfg.Workload)
			r, err = experiments.XRaySweep(p, cfg)
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "fig1", "fig3c", "fig6", "fig7a", "fig8", "fig9", "ckpt", "faults", "scale", "workflow", "fig10", "capacity", "slo", "chaos", "fabric", "xray"}
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(w, "\n"+strings.Repeat("=", 78)+"\n")
		}
		if err := run(id); err != nil {
			fmt.Fprintf(os.Stderr, "cxlsim: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}
