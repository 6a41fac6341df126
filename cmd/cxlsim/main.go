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
	"os"
	"strings"

	"cxlfork/internal/des"
	"cxlfork/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id: table1, fig1, fig3c, fig6, fig7a, fig7b, fig8, fig9, fig10, ckpt, faults, scale, workflow, lanes, capacity, slo, chaos, fabric, xray, all")
	lanesFn := flag.String("lanes-fn", "Float", "lanes: function to sweep")
	invocations := flag.Int("invocations", 128, "fig1: invocations per function")
	rps := flag.Float64("rps", 150, "fig10/capacity/slo: aggregate request rate")
	duration := flag.Float64("duration", 60, "fig10/capacity/slo: trace duration in seconds")
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

	run := func(id string) error {
		switch id {
		case "table1":
			experiments.Table1Render(w)
		case "fig1":
			r, err := experiments.Fig1(p, *invocations)
			if err != nil {
				return err
			}
			r.Render(w)
		case "fig3c":
			r, err := experiments.Fig3c(p)
			if err != nil {
				return err
			}
			r.Render(w)
		case "fig6":
			r, err := experiments.Fig6(p)
			if err != nil {
				return err
			}
			r.Render(w)
		case "fig7a", "fig7b", "fig7":
			r, err := experiments.Fig7(p)
			if err != nil {
				return err
			}
			r.Render(w)
		case "fig8":
			r, err := experiments.Fig8(p)
			if err != nil {
				return err
			}
			r.Render(w)
		case "fig9":
			r, err := experiments.Fig9(p)
			if err != nil {
				return err
			}
			r.Render(w)
		case "fig10", "fig10ab", "fig10c":
			cfg := experiments.DefaultFig10Config()
			cfg.RPS = *rps
			cfg.Duration = des.Time(*duration * float64(des.Second))
			r, err := experiments.Fig10(p, cfg)
			if err != nil {
				return err
			}
			r.Render(w)
		case "ckpt":
			r, err := experiments.Ckpt(p)
			if err != nil {
				return err
			}
			r.Render(w)
		case "faults":
			r, err := experiments.Faults(p)
			if err != nil {
				return err
			}
			r.Render(w)
		case "scale":
			r, err := experiments.Scale(p, "Rnn", 4, nil)
			if err != nil {
				return err
			}
			r.Render(w)
		case "workflow":
			r, err := experiments.Workflow(p, 4, nil)
			if err != nil {
				return err
			}
			r.Render(w)
		case "capacity":
			cfg := experiments.DefaultCapacityConfig()
			cfg.RPS = *rps
			cfg.Duration = des.Time(*duration * float64(des.Second))
			r, err := experiments.Capacity(p, cfg)
			if err != nil {
				return err
			}
			r.Render(w)
		case "slo":
			cfg := experiments.DefaultSLOConfig()
			cfg.RPS = *rps
			cfg.Duration = des.Time(*duration * float64(des.Second))
			r, err := experiments.SLO(p, cfg)
			if err != nil {
				return err
			}
			r.Render(w)
		case "chaos":
			cfg := experiments.DefaultChaosConfig()
			cfg.RPS = *rps
			if *duration != 60 {
				cfg.Duration = des.Time(*duration * float64(des.Second))
			}
			r, err := experiments.Chaos(p, cfg)
			if err != nil {
				return err
			}
			r.Render(w)
		case "lanes":
			r, err := experiments.LaneSweep(p, *lanesFn, nil)
			if err != nil {
				return err
			}
			fmt.Fprint(w, experiments.FormatLaneSweep(r))
		case "fabric":
			cfg := experiments.DefaultFabricExpConfig()
			if *rps != 150 {
				cfg.RPS = *rps
			}
			if *duration != 60 {
				cfg.Duration = des.Time(*duration * float64(des.Second))
			}
			r, err := experiments.FabricSweep(p, cfg)
			if err != nil {
				return err
			}
			r.Render(w)
		case "xray":
			cfg := experiments.DefaultXRayExpConfig()
			if *rps != 150 {
				cfg.Fabric.RPS = *rps
			}
			if *duration != 60 {
				cfg.Fabric.Duration = des.Time(*duration * float64(des.Second))
			}
			r, err := experiments.XRaySweep(p, cfg)
			if err != nil {
				return err
			}
			r.Render(w)
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
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
