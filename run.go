package cxlfork

import (
	"errors"
	"fmt"
	"io"
	"time"

	"cxlfork/internal/azure"
	"cxlfork/internal/des"
	"cxlfork/internal/experiments"
	"cxlfork/internal/faas"
	"cxlfork/internal/porter"
	"cxlfork/internal/telemetry"
	"cxlfork/internal/xray"
)

// ErrInterrupted is returned by RunWorkload when RunOptions.Interrupt
// stopped the replay before the trace drained. The accompanying report
// summarizes the partial run; its fingerprint is only comparable to
// other runs interrupted at the same virtual instant.
var ErrInterrupted = errors.New("cxlfork: run interrupted")

// Workload describes one replayed arrival trace for RunWorkload: the
// what-if question a capacity-planning session asks. The zero value
// replays the full function suite at 60 rps for 10 virtual seconds on
// the paper's CXLfork design.
type Workload struct {
	// Design selects the rfork mechanism the porter scales with:
	// "CXLfork" (dynamic tiering, default), "CXLfork-MoW" (static
	// migrate-on-write), "CRIU-CXL", or "Mitosis-CXL" — the Fig. 10
	// design axis.
	Design string
	// RPS is the aggregate request rate (default 60).
	RPS float64
	// Duration is the replayed trace length in virtual time
	// (default 10s).
	Duration time.Duration
	// Functions restricts the workload mix (default: full suite).
	Functions []string
	// Weights skews per-function request shares (unlisted functions
	// keep their default share).
	Weights map[string]float64
	// KeepAlive overrides the idle keep-alive window (0 keeps the
	// platform default).
	KeepAlive time.Duration
	// NodeBudgetBytes overrides the porter's per-node memory budget
	// (0 keeps Config.NodeDRAM) — "halve node memory" as a what-if.
	NodeBudgetBytes int64
	// Seed drives trace generation and jitter (default Config.Seed,
	// then 7 — the experiments' canonical seed).
	Seed int64
	// Trace, when non-empty, replays these arrivals in place of the
	// generated trace (e.g. a production trace read by LoadTraceCSV);
	// RPS, Duration and Weights then go unused. RunWorkload rejects a
	// trace that names a function outside the mix, or an arrival time
	// that is negative or too far out for the virtual clock.
	Trace []Arrival
}

// Arrival is one request arrival of an explicit trace.
type Arrival struct {
	At       time.Duration
	Function string
}

// LoadTraceCSV reads an explicit arrival trace ("seconds,function" CSV,
// header optional) for Workload.Trace.
func LoadTraceCSV(r io.Reader) ([]Arrival, error) {
	reqs, err := azure.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	out := make([]Arrival, len(reqs))
	for i, rq := range reqs {
		out[i] = Arrival{At: time.Duration(rq.At), Function: rq.Function}
	}
	return out, nil
}

// SaveTraceCSV writes a synthetic bursty trace over the given functions
// (the whole suite when none are given) so it can be inspected or
// replayed elsewhere. It refuses an unknown or repeated function as
// RunWorkload does, before writing anything.
func SaveTraceCSV(w io.Writer, functions []string, rps float64, duration time.Duration, seed int64) error {
	specs, err := experiments.ResolveFunctions(functions)
	if err != nil {
		return err
	}
	return azure.WriteCSV(w, experiments.GenerateTrace(experiments.SpecNames(specs), nil, rps, des.Time(duration), seed))
}

// WorkloadDesigns lists the accepted Workload.Design values.
var WorkloadDesigns = []string{"CXLfork", "CXLfork-MoW", "CRIU-CXL", "Mitosis-CXL"}

// SamplePoint is one series' value at a telemetry tick.
type SamplePoint struct {
	// Series is the metric key (name plus rendered labels).
	Series string
	// Kind is "gauge" or "counter".
	Kind string
	// Value is the sampled value.
	Value float64
}

// AlertEvent is one SLO burn-rate alert transition observed during a
// run.
type AlertEvent struct {
	// At is the virtual time of the transition.
	At time.Duration
	// Objective is the SLO objective name.
	Objective string
	// Firing is true on fire, false on resolve.
	Firing bool
	// Short and Long are the burn rates on the two alert windows.
	Short, Long float64
}

// Tick is one telemetry sampling tick delivered to RunOptions.OnSample:
// a consistent cross-series cut of every registered metric at one
// virtual instant, plus any SLO alert transitions since the previous
// tick.
type Tick struct {
	// Now is the virtual time of the tick.
	Now time.Duration
	// Seq is the tick's 1-based sequence number.
	Seq int64
	// Points holds every series' sampled value, in registration order
	// (the deterministic export order).
	Points []SamplePoint
	// Alerts are the SLO transitions that occurred since the last tick.
	Alerts []AlertEvent
}

// RunOptions carries the serving-side hooks of RunWorkload. Both
// callbacks run on the goroutine driving the simulation, inside the
// telemetry sampling event — they may block (live pacing does), and
// everything they observe is ordered with the virtual clock.
type RunOptions struct {
	// OnSample is invoked at every telemetry sampling tick. Setting it
	// forces telemetry on for the run; sampling is observational, so
	// the results stay byte-identical to a run without it.
	OnSample func(Tick)
	// Interrupt is polled after each tick; returning true stops the
	// engine and makes RunWorkload return ErrInterrupted. It is the
	// cancellation and timeout hook — contexts are wall-clock objects,
	// so the caller adapts one here.
	Interrupt func() bool
}

// FunctionLatency summarizes one function's request latencies in a
// RunReport.
type FunctionLatency struct {
	Count int           `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// RunReport summarizes one RunWorkload replay. All latencies are
// virtual time. Evictions counts checkpoints the capacity manager
// evicted from the device, IdleEvictions the idle instances the porter
// evicted from node memory, and Promotions the dynamic tiering
// controller's policy promotions. Throughput is requests completed
// within the arrival window per second of makespan. Fingerprint folds
// every scalar result and latency distribution into one hash (rendered
// as 16 hex digits): two runs of the same Config and Workload produce
// equal fingerprints regardless of worker count, telemetry, or the
// transport that delivered the spec — the serving layer's golden tests
// compare it across paths.
type RunReport struct {
	Design          string                     `json:"design"`
	Completed       int                        `json:"completed"`
	WarmStarts      int                        `json:"warm_starts"`
	ColdForks       int                        `json:"cold_forks"`
	ScratchCold     int                        `json:"scratch_cold"`
	FailedRestores  int                        `json:"failed_restores"`
	Evictions       int64                      `json:"evictions"`
	ReclaimPasses   int64                      `json:"reclaim_passes"`
	CkptRefused     int64                      `json:"ckpt_refused"`
	IdleEvictions   int                        `json:"idle_evictions"`
	Promotions      int                        `json:"promotions"`
	Throughput      float64                    `json:"throughput"`
	P50             time.Duration              `json:"p50_ns"`
	P99             time.Duration              `json:"p99_ns"`
	Mean            time.Duration              `json:"mean_ns"`
	Max             time.Duration              `json:"max_ns"`
	ColdP50         time.Duration              `json:"cold_p50_ns"`
	ColdP99         time.Duration              `json:"cold_p99_ns"`
	PerFunction     map[string]FunctionLatency `json:"per_function"`
	VirtualDuration time.Duration              `json:"virtual_duration_ns"`
	TelemetryTicks  int64                      `json:"telemetry_ticks"`
	SLOAlertsFired  int64                      `json:"slo_alerts_fired"`
	Alerts          []AlertEvent               `json:"-"`
	Fingerprint     string                     `json:"fingerprint"`
	Interrupted     bool                       `json:"interrupted,omitempty"`
	// XRay is the run's critical-path attribution report — the porter's
	// exact per-request blame decomposition — present only when
	// Config.XRay is set. It is observational: Fingerprint is computed
	// over the simulated results alone, so two runs differing only in
	// XRay carry equal fingerprints (the report has its own
	// byte-deterministic Fingerprint method).
	XRay *xray.Report `json:"xray,omitempty"`
}

// RunWorkload replays one arrival trace, seeded or explicit, against a
// freshly built cluster and returns its results — the facade's one
// porter-replay entry point, and the exact runner behind every
// cxlserved session (DESIGN.md §15). Construction is session-scoped:
// the cluster, porter and telemetry registry live and die with this
// call, so any number of RunWorkload calls may run concurrently on
// independent goroutines. The calibration profiles come from the
// process-wide calibration memo (DESIGN.md §13): the first call for a
// platform, design and function measures it, and later calls with the
// same inputs reuse that exact measurement.
//
// opts may be nil (no streaming, no cancellation). When
// opts.Interrupt stops the run mid-trace, RunWorkload returns the
// partial report alongside ErrInterrupted.
func RunWorkload(cfg Config, wl Workload, opts *RunOptions) (*RunReport, error) {
	if wl.Design == "" {
		wl.Design = "CXLfork"
	}
	if wl.RPS <= 0 {
		wl.RPS = 60
	}
	if wl.Duration <= 0 {
		wl.Duration = 10 * time.Second
	}
	if wl.Seed == 0 {
		wl.Seed = cfg.Seed
	}
	if wl.Seed == 0 {
		wl.Seed = 7
	}
	nodes := cfg.Nodes
	if nodes <= 0 {
		nodes = 2
	}

	specs, err := experiments.ResolveFunctions(wl.Functions)
	if err != nil {
		return nil, fmt.Errorf("cxlfork: %w (see FunctionNames)", err)
	}
	design := experiments.Design(wl.Design)
	scens := design.Scenarios()
	if scens == nil {
		return nil, fmt.Errorf("cxlfork: unknown design %q (want one of %v)", wl.Design, WorkloadDesigns)
	}
	// Only the mix is provisioned, so check the trace before paying for
	// calibration.
	var trace []azure.Request
	if len(wl.Trace) > 0 {
		if trace, err = explicitTrace(wl.Trace, specs); err != nil {
			return nil, err
		}
	}

	p := cfg.params()
	if opts != nil && opts.OnSample != nil {
		p.TelemetryEnabled = true
	}

	// Calibration runs unobserved whatever p says (MeasureFunction):
	// the mechanistic single-instance measurements are a sizing probe,
	// not part of the observed replay.
	profiles, err := experiments.Calibrate(p, specs, scens)
	if err != nil {
		return nil, err
	}

	leg, err := experiments.NewLeg(p, nodes, design, experiments.Workload{
		RPS:       wl.RPS,
		Duration:  des.Time(wl.Duration),
		KeepAlive: des.Time(wl.KeepAlive),
		Functions: wl.Functions,
		Weights:   wl.Weights,
		Seed:      wl.Seed,
		Trace:     trace,
	}, wl.NodeBudgetBytes, specs, profiles)
	if err != nil {
		return nil, err
	}
	c, po := leg.C, leg.Porter

	interrupted := false
	if opts != nil && opts.OnSample != nil {
		var seq int64
		var alertsSeen int
		c.Telem.SetSink(func(now des.Time) {
			seq++
			tick := Tick{Now: time.Duration(now), Seq: seq}
			for _, s := range c.Telem.Series() {
				if sm, ok := s.Last(); ok {
					tick.Points = append(tick.Points, SamplePoint{
						Series: s.Key(), Kind: s.Kind().String(), Value: sm.V,
					})
				}
			}
			alerts := po.SLOAlerts()
			for ; alertsSeen < len(alerts); alertsSeen++ {
				tick.Alerts = append(tick.Alerts, alertEvent(alerts[alertsSeen]))
			}
			opts.OnSample(tick)
			if opts.Interrupt != nil && opts.Interrupt() {
				interrupted = true
				c.Eng.Stop()
			}
		})
	}

	results := leg.Run()
	report := buildReport(wl.Design, results, po.SLOAlerts(), interrupted)
	if c.XRay.Enabled() {
		report.XRay = c.XRay.Report()
	}
	if interrupted {
		return report, ErrInterrupted
	}
	return report, nil
}

// explicitTrace converts arrivals into the porter's trace. It rejects
// the first arrival that names a function outside specs, or whose time
// azure.CheckSeconds refuses: a replay offsets every arrival by its
// start time, which a negative or huge At would carry into the past or
// past the clock's range.
func explicitTrace(arrivals []Arrival, specs []faas.Spec) ([]azure.Request, error) {
	mix := make(map[string]bool, len(specs))
	for _, sp := range specs {
		mix[sp.Name] = true
	}
	trace := make([]azure.Request, len(arrivals))
	for i, a := range arrivals {
		if !mix[a.Function] {
			return nil, fmt.Errorf("cxlfork: trace names function %q, which is not in the workload mix", a.Function)
		}
		if err := azure.CheckSeconds(a.At.Seconds()); err != nil {
			return nil, fmt.Errorf("cxlfork: trace arrival %d (%s at %v): %w", i, a.Function, a.At, err)
		}
		trace[i] = azure.Request{At: des.Time(a.At), Function: a.Function}
	}
	return trace, nil
}

func alertEvent(a telemetry.Alert) AlertEvent {
	return AlertEvent{
		At:        time.Duration(a.At),
		Objective: a.Objective,
		Firing:    a.Firing,
		Short:     a.Short,
		Long:      a.Long,
	}
}

func buildReport(design string, r porter.Results, alerts []telemetry.Alert, interrupted bool) *RunReport {
	rep := &RunReport{
		Design:          design,
		Completed:       r.Completed,
		WarmStarts:      r.WarmStarts,
		ColdForks:       r.ColdForks,
		ScratchCold:     r.ScratchCold,
		FailedRestores:  r.FailedRestores,
		Evictions:       r.EvictedCkpts,
		ReclaimPasses:   r.ReclaimPasses,
		CkptRefused:     r.CkptRefused,
		IdleEvictions:   r.Evictions,
		Promotions:      r.PolicyPromotions,
		Throughput:      r.Throughput(),
		PerFunction:     make(map[string]FunctionLatency),
		VirtualDuration: time.Duration(r.Duration),
		TelemetryTicks:  r.TelemetrySamples,
		SLOAlertsFired:  r.SLOAlertsFired,
		Fingerprint:     fmt.Sprintf("%016x", r.Fingerprint()),
		Interrupted:     interrupted,
	}
	if r.Overall != nil && r.Overall.Count() > 0 {
		rep.P50 = time.Duration(r.Overall.P50())
		rep.P99 = time.Duration(r.Overall.P99())
		rep.Mean = time.Duration(r.Overall.Mean())
		rep.Max = time.Duration(r.Overall.Max())
	}
	if r.ColdLatency != nil && r.ColdLatency.Count() > 0 {
		rep.ColdP50 = time.Duration(r.ColdLatency.P50())
		rep.ColdP99 = time.Duration(r.ColdLatency.P99())
	}
	for fn, rec := range r.PerFunction {
		if rec == nil || rec.Count() == 0 {
			continue
		}
		rep.PerFunction[fn] = FunctionLatency{
			Count: rec.Count(),
			P50:   time.Duration(rec.P50()),
			P99:   time.Duration(rec.P99()),
		}
	}
	for _, a := range alerts {
		rep.Alerts = append(rep.Alerts, alertEvent(a))
	}
	return rep
}
