package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// MeasureAll runs the cold-start measurement protocol for every function
// in specs. Each function's protocol builds its own environment, so the
// legs are independent and fan out to params.SimWorkers goroutines;
// results land in spec order either way (DESIGN.md §13).
func MeasureAll(p params.Params, specs []faas.Spec, scens []Scenario) ([]*FnMeasurement, error) {
	return sweep(p, len(specs), func(i int) (*FnMeasurement, error) {
		m, err := MeasureFunction(p, specs[i], scens)
		if err != nil {
			return nil, fmt.Errorf("measuring %s: %w", specs[i].Name, err)
		}
		return m, nil
	})
}

// Fig7Result holds the data of Fig. 7a (end-to-end cold-start execution
// with Restore / Page Faults / Execution breakdown) and Fig. 7b (local
// memory consumption normalized to Cold).
type Fig7Result struct {
	Measurements []*FnMeasurement
}

// Fig7 runs the full cold-start comparison across the function suite.
func Fig7(p params.Params) (*Fig7Result, error) {
	ms, err := MeasureAll(p, faas.Suite(), AllScenarios)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Measurements: ms}, nil
}

// rforkScenarios are the Fig. 7a bars.
var rforkScenarios = []Scenario{ScenCold, ScenLocalFork, ScenCRIU, ScenMitosis, ScenCXLfork}

// Fig7Summary holds the ratio averages the paper reports (§7.1).
type Fig7Summary struct {
	ColdOverCXLfork     float64 // "Cold is on average 11x slower than CXLfork"
	CXLforkOverLocal    float64 // "on average only 14% slower than LocalFork"
	CRIUOverCXLfork     float64 // "2.26x faster than CRIU-CXL"
	MitosisOverCXLfork  float64 // "1.40x faster than Mitosis-CXL"
	MemCXLforkOverCold  float64 // "only 13% of the local memory of a cold-started function"
	MemSavedOverCRIU    float64 // "reduces memory consumption by 87% over CRIU"
	MemSavedOverMitosis float64 // "by 61% over Mitosis"
}

// Summary computes the headline averages (arithmetic means of the
// per-function ratios, as the paper reports).
func (r *Fig7Result) Summary() Fig7Summary {
	var s Fig7Summary
	var coldR, lfR, criuR, mitR, memColdR, memCriuR, memMitR []float64
	for _, fm := range r.Measurements {
		cx, ok := fm.ByScen[ScenCXLfork]
		if !ok {
			continue
		}
		if m, ok := fm.ByScen[ScenCold]; ok {
			coldR = append(coldR, float64(m.E2E)/float64(cx.E2E))
			if m.LocalPages > 0 {
				memColdR = append(memColdR, float64(cx.LocalPages)/float64(m.LocalPages))
			}
		}
		if m, ok := fm.ByScen[ScenLocalFork]; ok {
			lfR = append(lfR, float64(cx.E2E)/float64(m.E2E))
		}
		if m, ok := fm.ByScen[ScenCRIU]; ok {
			criuR = append(criuR, float64(m.E2E)/float64(cx.E2E))
			if m.LocalPages > 0 {
				memCriuR = append(memCriuR, 1-float64(cx.LocalPages)/float64(m.LocalPages))
			}
		}
		if m, ok := fm.ByScen[ScenMitosis]; ok {
			mitR = append(mitR, float64(m.E2E)/float64(cx.E2E))
			if m.LocalPages > 0 {
				memMitR = append(memMitR, 1-float64(cx.LocalPages)/float64(m.LocalPages))
			}
		}
	}
	s.ColdOverCXLfork = mean(coldR)
	s.CXLforkOverLocal = mean(lfR)
	s.CRIUOverCXLfork = mean(criuR)
	s.MitosisOverCXLfork = mean(mitR)
	s.MemCXLforkOverCold = mean(memColdR)
	s.MemSavedOverCRIU = mean(memCriuR)
	s.MemSavedOverMitosis = mean(memMitR)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Render prints Fig. 7a and Fig. 7b as tables.
func (r *Fig7Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 7a — end-to-end cold-start execution time (restore | page faults | execution | total)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Function")
	for _, sc := range rforkScenarios {
		fmt.Fprintf(tw, "\t%s", sc)
	}
	fmt.Fprintln(tw)
	for _, fm := range r.Measurements {
		fmt.Fprint(tw, fm.Spec.Name)
		for _, sc := range rforkScenarios {
			m, ok := fm.ByScen[sc]
			if !ok {
				fmt.Fprint(tw, "\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%s|%s|%s|%s",
				compact(m.Restore), compact(m.FaultTime), compact(m.Exec), compact(m.E2E))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 7b — local memory consumption normalized to Cold")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Function")
	for _, sc := range rforkScenarios[1:] {
		fmt.Fprintf(tw, "\t%s", sc)
	}
	fmt.Fprintln(tw, "\tCold(MB)")
	for _, fm := range r.Measurements {
		cold, ok := fm.ByScen[ScenCold]
		if !ok || cold.LocalPages == 0 {
			continue
		}
		fmt.Fprint(tw, fm.Spec.Name)
		for _, sc := range rforkScenarios[1:] {
			m, ok := fm.ByScen[sc]
			if !ok {
				fmt.Fprint(tw, "\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%.2f", float64(m.LocalPages)/float64(cold.LocalPages))
		}
		fmt.Fprintf(tw, "\t%d\n", int64(cold.LocalPages)*4096>>20)
	}
	tw.Flush()

	s := r.Summary()
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Averages: Cold/CXLfork=%.2fx (paper ~11x)  CXLfork/LocalFork=%.2fx (paper ~1.14x)\n",
		s.ColdOverCXLfork, s.CXLforkOverLocal)
	fmt.Fprintf(w, "          CRIU/CXLfork=%.2fx (paper 2.26x)  Mitosis/CXLfork=%.2fx (paper 1.40x)\n",
		s.CRIUOverCXLfork, s.MitosisOverCXLfork)
	fmt.Fprintf(w, "          mem: CXLfork/Cold=%.0f%% (paper ~13%%)  saved vs CRIU=%.0f%% (paper 87%%)  vs Mitosis=%.0f%% (paper 61%%)\n",
		100*s.MemCXLforkOverCold, 100*s.MemSavedOverCRIU, 100*s.MemSavedOverMitosis)
}

// compact renders a duration tersely for table cells.
func compact(d des.Time) string {
	switch {
	case d >= des.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= des.Millisecond:
		return fmt.Sprintf("%.1fms", d.Millis())
	case d >= des.Microsecond:
		return fmt.Sprintf("%.0fµs", d.Micros())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}
