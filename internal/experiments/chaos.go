package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cxlfork/internal/cluster"
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
	// RPS and Duration shape the replayed Fig. 10 trace.
	RPS      float64
	Duration des.Time
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
	// KeepAlive, Functions, Weights, Seed: as in CapacityConfig.
	KeepAlive des.Time
	Functions []string
	Weights   map[string]float64
	Seed      int64
}

// DefaultChaosConfig is a three-device pool under the capacity
// experiment's skewed trace, killing each device in turn at one third
// of the replay across RF 1, 2, and 3.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		RPS:          150,
		Duration:     30 * des.Second,
		Devices:      3,
		Factors:      []int{1, 2, 3},
		KillAt:       10 * des.Second,
		PoolHeadroom: 4.5,
		// 64 MiB per tick: killing the ingest device at RF 2 orphans one
		// copy of the whole footprint (~420k pages), so the sweep needs
		// this much reserved repair bandwidth to converge inside the
		// remaining trace window.
		RepairBandwidthPages: 16384,
		KeepAlive:            3 * des.Second,
		Weights: map[string]float64{
			"Cnn": 20, "Json": 2, "Float": 2, "Rnn": 2, "Chameleon": 1,
			"Bert": 0,
		},
		Seed: 7,
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
	specs, err := ResolveFunctions(cfg.Functions)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	profiles, err := Calibrate(p, specs, DesignCXLforkMoW.Scenarios())
	if err != nil {
		return nil, err
	}

	footprint, err := capacityFootprint(p, specs, profiles, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{Cfg: cfg, FootprintBytes: footprint}

	// Every (factor, kill) replay builds its own cluster, pool, and
	// trace, so the sweep fans out to params.SimWorkers goroutines with
	// results in sweep order (factor-major, kill-minor).
	type cell struct {
		rf, kill int
	}
	var grid []cell
	for _, rf := range cfg.Factors {
		for kill := -1; kill < cfg.Devices; kill++ {
			grid = append(grid, cell{rf, kill})
		}
	}
	runs := make([]ChaosRun, len(grid))
	pools := make([]int64, len(grid))
	errs := make([]error, len(grid))
	des.NewPool(p.SimWorkers).Each(len(grid), func(i int) {
		runs[i], pools[i], errs[i] = chaosRun(p, cfg, grid[i].rf, grid[i].kill, footprint, specs, profiles)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("chaos rf=%d kill=%d: %w", grid[i].rf, grid[i].kill, err)
		}
	}
	res.Runs = runs
	res.PoolBytes = pools[len(pools)-1]
	return res, nil
}

// chaosRun is one replay: pool of cfg.Devices devices, replication
// factor rf, and — unless kill is -1 — a DeviceLoss fault at KillAt.
func chaosRun(p params.Params, cfg ChaosConfig, rf, kill int, footprint int64, specs []faas.Spec, profiles map[porter.ProfileKey]porter.Profile) (ChaosRun, int64, error) {
	if cfg.KeepAlive > 0 {
		p.KeepAlive = cfg.KeepAlive
	}
	p.CXLDevices = cfg.Devices
	p.ReplicationFactor = rf
	if cfg.RepairBandwidthPages > 0 {
		p.RepairBandwidthPages = cfg.RepairBandwidthPages
	}
	p.CXLBytes = scaledBytes(p, footprint, cfg.PoolHeadroom)

	c := cluster.MustNew(p, 2)
	if kill >= 0 {
		c.Faults.Inject(faultinject.Rule{Kind: faultinject.DeviceLoss, Device: kill, At: cfg.KillAt})
	}
	po, err := NewPorter(c, DesignCXLforkMoW, porter.Config{Profiles: profiles, Seed: cfg.Seed}, specs)
	if err != nil {
		return ChaosRun{}, 0, err
	}
	results := po.Run(GenerateTrace(SpecNames(specs), cfg.Weights, cfg.RPS, cfg.Duration, cfg.Seed))

	run := ChaosRun{
		Factor:      rf,
		Killed:      kill,
		Results:     results,
		Fingerprint: results.Fingerprint(),
	}
	if cl := results.ColdLatency; cl != nil && cl.Count() > 0 {
		run.ColdP99 = cl.P99()
	}
	return run, p.CXLBytes, nil
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
