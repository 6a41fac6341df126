package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
)

// The chaos experiment (DESIGN.md §12, EXPERIMENTS.md "-exp chaos")
// kills expander devices mid-workload and measures what replication
// buys. The pool is split across several devices and the skewed Fig. 10
// trace replayed once per (replication factor, killed device) pair plus
// a no-kill baseline per factor. At RF 1 every checkpoint has a single
// copy (dedup-affine to the ingest device), so losing that device loses
// images outright: restores fail and their functions degrade to scratch
// cold starts for good. At RF >= 2 the porter fails over to a surviving
// replica — every restore still succeeds — and the anti-entropy repair
// loop rebuilds the lost copies within its bandwidth budget; the report
// includes how long convergence took and what the failovers cost the
// cold-start tail.

// ChaosConfig tunes the device-kill sweep.
type ChaosConfig struct {
	// Workload is the replayed trace (default capacityTrace over 30 s).
	Workload
	// Devices is the expander pool size.
	Devices int
	// Factors are the replication factors compared.
	Factors []int
	// KillAt is when, relative to replay start, the device dies.
	KillAt des.Time
	// PoolHeadroom sizes total pool capacity as a multiple of the
	// suite's measured (dedup-aware) checkpoint footprint. It must
	// cover the ingest device holding one copy of everything plus the
	// highest factor's extra replicas.
	PoolHeadroom float64
	// RepairBandwidthPages overrides the repair loop's per-tick copy
	// budget when non-zero (the sweep wants convergence within the
	// trace window).
	RepairBandwidthPages int
}

// DefaultChaosConfig is a three-device pool under the capacity
// experiment's skewed trace, killing each device in turn at one third
// of the replay across RF 1, 2, and 3.
func DefaultChaosConfig() ChaosConfig {
	wl := capacityTrace()
	wl.Duration = 30 * des.Second
	return ChaosConfig{
		Workload:     wl,
		Devices:      3,
		Factors:      []int{1, 2, 3},
		KillAt:       10 * des.Second,
		PoolHeadroom: 4.5,
		// 64 MiB per tick: killing the ingest device at RF 2 orphans one
		// copy of the whole footprint (~420k pages), so the sweep needs
		// this much reserved repair bandwidth to converge inside the
		// remaining trace window.
		RepairBandwidthPages: 16384,
	}
}

// ChaosRun is one (replication factor, killed device) replay. Killed is
// -1 for the no-kill baseline.
type ChaosRun struct {
	Factor  int
	Killed  int
	Results porter.Results
	ColdP99 des.Time
	// Fingerprint is the replay's determinism hash.
	Fingerprint uint64
}

// ChaosResult holds the sweep plus the measured footprint.
type ChaosResult struct {
	Cfg            ChaosConfig
	FootprintBytes int64
	PoolBytes      int64
	Runs           []ChaosRun
}

// Chaos measures the suite footprint, then replays the trace for every
// replication factor: once untouched and once per killed device.
func Chaos(p params.Params, cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Devices < 2 {
		return nil, fmt.Errorf("chaos: need at least 2 devices, got %d", cfg.Devices)
	}
	specs, profiles, err := calibrated(p, cfg.Workload, DesignCXLforkMoW.Scenarios())
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	footprint, err := capacityFootprint(p, specs, profiles, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p.CXLDevices = cfg.Devices
	if cfg.RepairBandwidthPages > 0 {
		p.RepairBandwidthPages = cfg.RepairBandwidthPages
	}
	p.CXLBytes = scaledBytes(p, footprint, cfg.PoolHeadroom)

	// The sweep is factor-major, kill-minor; kill -1 is the no-kill
	// baseline.
	nk := cfg.Devices + 1
	runs, err := sweep(p, len(cfg.Factors)*nk, func(i int) (ChaosRun, error) {
		rf, kill := cfg.Factors[i/nk], i%nk-1
		run, err := chaosRun(p, cfg, rf, kill, specs, profiles)
		if err != nil {
			return ChaosRun{}, fmt.Errorf("chaos rf=%d kill=%d: %w", rf, kill, err)
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Cfg: cfg, FootprintBytes: footprint, PoolBytes: p.CXLBytes, Runs: runs}, nil
}

// chaosRun is one replay on p's device pool at replication factor rf
// and — unless kill is -1 — a DeviceLoss fault at KillAt.
func chaosRun(p params.Params, cfg ChaosConfig, rf, kill int, specs []faas.Spec, profiles map[porter.ProfileKey]porter.Profile) (ChaosRun, error) {
	p.ReplicationFactor = rf
	leg, err := NewLeg(p, 2, DesignCXLforkMoW, cfg.Workload, 0, specs, profiles)
	if err != nil {
		return ChaosRun{}, err
	}
	if kill >= 0 {
		leg.C.Faults.Inject(faultinject.Rule{Kind: faultinject.DeviceLoss, Device: kill, At: cfg.KillAt})
	}
	results := leg.Run()

	run := ChaosRun{
		Factor:      rf,
		Killed:      kill,
		Results:     results,
		Fingerprint: results.Fingerprint(),
	}
	if cl := results.ColdLatency; cl != nil && cl.Count() > 0 {
		run.ColdP99 = cl.P99()
	}
	return run, nil
}

// run returns the replay for (rf, kill), or nil.
func (r *ChaosResult) run(rf, kill int) *ChaosRun {
	for i := range r.Runs {
		if r.Runs[i].Factor == rf && r.Runs[i].Killed == kill {
			return &r.Runs[i]
		}
	}
	return nil
}

// FailedRestoresAt sums failed restores across every kill run at rf.
func (r *ChaosResult) FailedRestoresAt(rf int) int {
	n := 0
	for i := range r.Runs {
		if r.Runs[i].Factor == rf && r.Runs[i].Killed >= 0 {
			n += r.Runs[i].Results.FailedRestores
		}
	}
	return n
}

// LostImagesAt sums lost images across every kill run at rf.
func (r *ChaosResult) LostImagesAt(rf int) int64 {
	var n int64
	for i := range r.Runs {
		if r.Runs[i].Factor == rf && r.Runs[i].Killed >= 0 {
			n += r.Runs[i].Results.LostImages
		}
	}
	return n
}

// Render prints one table per replication factor — the no-kill baseline
// followed by each killed device — then the headline durability
// comparison.
func (r *ChaosResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Chaos sweep — %d-device pool, %d MiB total (%.1fx of %d MiB footprint), kill at %s, Fig. 10 trace %.0f rps × %s\n",
		r.Cfg.Devices, r.PoolBytes>>20, r.Cfg.PoolHeadroom, r.FootprintBytes>>20,
		compact(r.Cfg.KillAt), r.Cfg.RPS, compact(r.Cfg.Duration))
	for _, rf := range r.Cfg.Factors {
		fmt.Fprintf(w, "\nReplication factor %d\n", rf)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Kill\tFailedRestores\tLostImages\tFailovers\tExhausted\tRepaired\tConverged\tCold P99\tOverall P99")
		for kill := -1; kill < r.Cfg.Devices; kill++ {
			run := r.run(rf, kill)
			if run == nil {
				continue
			}
			res := run.Results
			name := "none"
			if kill >= 0 {
				name = fmt.Sprintf("dev%d", kill)
			}
			conv := "-"
			if res.RepairConvergedOK {
				conv = compact(res.RepairConverged)
			}
			cold := "-"
			if run.ColdP99 > 0 {
				cold = compact(run.ColdP99)
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d pg\t%s\t%s\t%s\n",
				name, res.FailedRestores, res.LostImages, res.Failovers,
				res.RetryExhausted, res.RepairedPages, conv, cold,
				compact(res.Overall.P99()))
		}
		tw.Flush()
	}

	fmt.Fprintln(w)
	for _, rf := range r.Cfg.Factors {
		failed, lost := r.FailedRestoresAt(rf), r.LostImagesAt(rf)
		verdict := "survives the loss of any single device"
		if lost > 0 || failed > 0 {
			verdict = "loses checkpoints with their device"
		}
		fmt.Fprintf(w, "RF %d: %d failed restores, %d lost images across single-device kills — %s\n",
			rf, failed, lost, verdict)
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		kill := "none"
		if run.Killed >= 0 {
			kill = fmt.Sprintf("dev%d", run.Killed)
		}
		renderObservability(w, fmt.Sprintf("rf%d/%s: ", run.Factor, kill), run.Results)
	}
}
