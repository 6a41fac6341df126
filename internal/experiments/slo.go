package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/fabric"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
	"cxlfork/internal/telemetry"
	"cxlfork/internal/trace"
	"cxlfork/internal/xray"
)

// The SLO experiment (DESIGN.md §11, EXPERIMENTS.md "-exp slo") closes
// the observe→act loop the telemetry engine enables: it replays the
// capacity experiment's skewed Fig. 10 trace on an undersized device
// with an occupancy objective declared, once with the burn-rate alert
// only observing and once with it driving the capacity manager (early
// reclaim toward the low watermark plus tightened admission). The
// comparison shows what acting on telemetry buys: the driven run
// reclaims before the high watermark forces it to.

// TelemetryTraceConfig tunes one telemetry-enabled trace replay — the
// shared runner behind the SLO experiment and the cxlstat CLI.
type TelemetryTraceConfig struct {
	// Workload is the replayed trace.
	Workload
	// DeviceFrac, when non-zero, sizes the device to this fraction of
	// the suite's measured checkpoint footprint (as in the capacity
	// sweep); zero keeps the params device.
	DeviceFrac float64
	// Policy is the eviction policy ("" keeps the params default).
	Policy string
	// SampleEvery overrides the telemetry tick when non-zero.
	SampleEvery des.Time
	// SLOOccupancy, when non-zero, declares the occupancy objective;
	// SLODrive lets its alert drive the capacity manager.
	SLOOccupancy float64
	SLODrive     bool
	// LowWatermark, when non-zero, overrides the capacity manager's
	// reclaim floor so the objective can sit between the watermarks.
	LowWatermark float64
	// Devices, when > 1, splits the device into a pool of that many
	// expanders; ReplicationFactor, when > 0, replicates each
	// checkpoint onto that many of them (DESIGN.md §12).
	Devices           int
	ReplicationFactor int
	// Switches, when > 0, runs the replay on an explicit grid fabric
	// topology of that many switches (hosts and the Devices pool
	// round-robined across them, DESIGN.md §14); Placement selects the
	// replica placement policy over it ("hash" or "locality").
	Switches  int
	Placement string
	// XRay enables critical-path attribution over the replay
	// (DESIGN.md §16); the blame report lands on the result. Being
	// observational, it leaves Results (and its fingerprint) unchanged.
	XRay bool
}

// TelemetryTraceResult is one telemetry-enabled replay: the sampled
// registry alongside the porter results.
type TelemetryTraceResult struct {
	Registry *telemetry.Registry
	Results  porter.Results
	Alerts   []telemetry.Alert
	// FootprintBytes is the measured suite footprint (0 when
	// DeviceFrac was not used); DeviceBytes is the device size the
	// replay ran with.
	FootprintBytes int64
	DeviceBytes    int64
	// XRay is the replay's attribution report, nil unless
	// TelemetryTraceConfig.XRay was set.
	XRay *xray.Report
}

// TelemetryTrace calibrates profiles, sizes the device, and replays
// the trace with telemetry sampling on.
func TelemetryTrace(p params.Params, cfg TelemetryTraceConfig) (*TelemetryTraceResult, error) {
	trs, err := telemetryTraces(p, cfg)
	if err != nil {
		return nil, err
	}
	return trs[0], nil
}

// telemetryTraces calibrates once and sizes the device once, both from
// cfgs[0], then replays each config as one sweep cell. The configs share
// cfgs[0]'s Workload and DeviceFrac and differ only in what their
// replays observe or drive.
func telemetryTraces(p params.Params, cfgs ...TelemetryTraceConfig) ([]*TelemetryTraceResult, error) {
	base := cfgs[0]
	specs, profiles, err := calibrated(p, base.Workload, DesignCXLforkMoW.Scenarios())
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	var footprint int64
	if base.DeviceFrac > 0 {
		// Footprint measurement runs with telemetry off: it is a sizing
		// probe, not part of the observed replay.
		if footprint, err = capacityFootprint(p, specs, profiles, base.Seed); err != nil {
			return nil, err
		}
		p.CXLBytes = scaledBytes(p, footprint, base.DeviceFrac)
	}
	return sweep(p, len(cfgs), func(i int) (*TelemetryTraceResult, error) {
		return telemetryReplay(p, cfgs[i], specs, profiles, footprint)
	})
}

// telemetryReplay is one telemetry-enabled replay of cfg over p's
// device; footprint is the measured suite footprint (0 if unmeasured).
func telemetryReplay(p params.Params, cfg TelemetryTraceConfig, specs []faas.Spec, profiles map[porter.ProfileKey]porter.Profile, footprint int64) (*TelemetryTraceResult, error) {
	p.TelemetryEnabled = true
	if cfg.SampleEvery > 0 {
		p.SampleEvery = cfg.SampleEvery
	}
	if cfg.Policy != "" {
		p.EvictPolicy = cfg.Policy
	}
	if cfg.SLOOccupancy > 0 {
		p.SLOOccupancy = cfg.SLOOccupancy
		p.SLODriveReclaim = cfg.SLODrive
	}
	if cfg.LowWatermark > 0 {
		p.CXLLowWatermark = cfg.LowWatermark
	}
	if cfg.Devices > 0 {
		p.CXLDevices = cfg.Devices
	}
	if cfg.ReplicationFactor > 0 {
		p.ReplicationFactor = cfg.ReplicationFactor
	}
	if cfg.Switches > 0 {
		ndev := cfg.Devices
		if ndev < 1 {
			ndev = 1
		}
		p.Topology = fabric.GridSpec(2, cfg.Switches, ndev)
	}
	if cfg.Placement != "" {
		p.PlacementPolicy = cfg.Placement
	}
	if cfg.XRay {
		p.XRayEnabled = true
	}

	leg, err := NewLeg(p, 2, DesignCXLforkMoW, cfg.Workload, 0, specs, profiles)
	if err != nil {
		return nil, err
	}
	out := &TelemetryTraceResult{
		Results:        leg.Run(),
		Registry:       leg.Porter.Telemetry(),
		Alerts:         leg.Porter.SLOAlerts(),
		FootprintBytes: footprint,
		DeviceBytes:    p.CXLBytes,
	}
	if leg.C.XRay.Enabled() {
		out.XRay = leg.C.XRay.Report()
	}
	return out, nil
}

// SLOConfig tunes the observe-vs-drive comparison.
type SLOConfig struct {
	// Workload is the replayed trace (default capacityTrace).
	Workload
	// DeviceFrac sizes the device as a fraction of the measured suite
	// footprint — undersized so occupancy pressure is real.
	DeviceFrac float64
	// Occupancy is the SLO target utilization, set between the low and
	// high watermarks so the alert can act before forced reclaim.
	Occupancy float64
	// LowWatermark overrides the reclaim floor for both runs (0 keeps
	// the params default). The objective only has room to act when it
	// sits above this floor and below steady-state occupancy.
	LowWatermark float64
}

// DefaultSLOConfig mirrors the capacity experiment's skewed Fig. 10
// replay on a half-footprint device, with the occupancy objective
// placed between the watermarks (low 0.60 < target 0.70 < high 0.90)
// so the firing alert has room to reclaim before the high watermark
// would force it.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		Workload:     capacityTrace(),
		DeviceFrac:   0.5,
		Occupancy:    0.70,
		LowWatermark: 0.60,
	}
}

// SLORun is one replay of the comparison.
type SLORun struct {
	// Drive is whether the occupancy alert drove the capacity manager.
	Drive   bool
	Results porter.Results
	Alerts  []telemetry.Alert
	// OccMax and OccMean summarize the sampled cxl_utilization series.
	OccMax, OccMean float64
}

// SLOResult holds both replays.
type SLOResult struct {
	Cfg            SLOConfig
	FootprintBytes int64
	DeviceBytes    int64
	Observe, Drive SLORun
}

// SLO runs the comparison: identical replays with the occupancy
// alert observing vs driving the capacity manager, calibrated and sized
// once and replayed as two sweep cells.
func SLO(p params.Params, cfg SLOConfig) (*SLOResult, error) {
	observe := TelemetryTraceConfig{
		Workload:     cfg.Workload,
		DeviceFrac:   cfg.DeviceFrac,
		SLOOccupancy: cfg.Occupancy,
		LowWatermark: cfg.LowWatermark,
	}
	drive := observe
	drive.SLODrive = true
	trs, err := telemetryTraces(p, observe, drive)
	if err != nil {
		return nil, fmt.Errorf("slo: %w", err)
	}
	res := &SLOResult{Cfg: cfg, FootprintBytes: trs[0].FootprintBytes, DeviceBytes: trs[0].DeviceBytes}
	for i, run := range []*SLORun{&res.Observe, &res.Drive} {
		*run = SLORun{Drive: i == 1, Results: trs[i].Results, Alerts: trs[i].Alerts}
		run.OccMax, run.OccMean = seriesStats(trs[i].Registry, "cxl_utilization")
	}
	return res, nil
}

// seriesStats returns the max and mean of a sampled series' values.
func seriesStats(reg *telemetry.Registry, key string) (max, mean float64) {
	s := reg.Lookup(key)
	if s == nil || s.Len() == 0 {
		return 0, 0
	}
	var sum float64
	for _, sm := range s.Samples() {
		if sm.V > max {
			max = sm.V
		}
		sum += sm.V
	}
	return max, sum / float64(s.Len())
}

// renderObservability appends the run's observation accounting to a
// summary — sample counts, ring/trace drops, and SLO alert activity.
// Quiet when the run observed nothing and lost nothing.
func renderObservability(w io.Writer, label string, res porter.Results) {
	if res.TelemetrySamples == 0 && res.TraceDropped == 0 && res.TelemetryDropped == 0 {
		return
	}
	fmt.Fprintf(w, "%stelemetry: %d samples, %d ring drops; trace drops: %d; SLO alerts fired: %d\n",
		label, res.TelemetrySamples, res.TelemetryDropped, res.TraceDropped, res.SLOAlertsFired)
	if res.TelemetryDropped > 0 {
		fmt.Fprintf(w, "%s  warning: telemetry ring overflow — %d oldest samples overwritten; each series keeps its newest %d\n",
			label, res.TelemetryDropped, telemetry.DefaultSeriesCap)
	}
	if res.TraceDropped > 0 {
		fmt.Fprintf(w, "%s  warning: trace buffer overflow — %d spans lost past the %d-span buffer\n",
			label, res.TraceDropped, trace.DefaultBufferCap)
	}
}

// Render prints the observe-vs-drive comparison and the driven run's
// alert timeline.
func (r *SLOResult) Render(w io.Writer) {
	fmt.Fprintf(w, "SLO burn-rate drive — occupancy objective ≤ %.0f%%, device %d MiB (%.0f%% of %d MiB footprint), Fig. 10 trace %.0f rps × %s\n",
		100*r.Cfg.Occupancy, r.DeviceBytes>>20, 100*r.Cfg.DeviceFrac,
		r.FootprintBytes>>20, r.Cfg.RPS, compact(r.Cfg.Duration))

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mode\tAlerts\tReclaims\tEvicted\tRefused\tOcc max\tOcc mean\tCold P99\tOverall P99")
	for _, run := range []SLORun{r.Observe, r.Drive} {
		mode := "observe"
		if run.Drive {
			mode = "drive"
		}
		res := run.Results
		cold99 := "-"
		if res.ColdLatency != nil && res.ColdLatency.Count() > 0 {
			cold99 = compact(res.ColdLatency.Quantile(99))
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1f%%\t%.1f%%\t%s\t%s\n",
			mode, res.SLOAlertsFired, res.ReclaimPasses, res.EvictedCkpts, res.CkptRefused,
			100*run.OccMax, 100*run.OccMean, cold99, compact(res.Overall.P99()))
	}
	tw.Flush()

	if len(r.Drive.Alerts) > 0 {
		fmt.Fprintln(w, "\nDriven-run alert timeline:")
		for _, a := range r.Drive.Alerts {
			state := "RESOLVED"
			if a.Firing {
				state = "FIRING"
			}
			fmt.Fprintf(w, "  %8s  %s %s (burn short %.1f, long %.1f)\n",
				compact(a.At), a.Objective, state, a.Short, a.Long)
		}
	}
	renderObservability(w, "", r.Drive.Results)
}
