package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
)

// The capacity experiment (DESIGN.md §10, EXPERIMENTS.md "-exp
// capacity") studies checkpoint lifecycle under device pressure — the
// question the paper's §8 leaves open. It first measures the aggregate
// checkpoint footprint of the workload suite (dedup-aware: shared
// frames counted once), then replays the Fig. 10 bursty trace with the
// shared device sized to 100/50/25% of that footprint, once per
// eviction policy. Small devices force the capacity manager through its
// degradation ladder — evict, refuse publications, scratch cold starts
// — and the policies separate on the latency of the cold starts they
// cause: evicting by restore value (costbenefit) keeps expensive
// checkpoints resident, evicting by size alone does not.

// CapacityPolicies lists the compared eviction policies in
// presentation order.
var CapacityPolicies = []string{"lru", "largest", "costbenefit"}

// CapacityConfig tunes the device-size sweep.
type CapacityConfig struct {
	// Workload is the replayed trace (default capacityTrace).
	Workload
	// DeviceFractions sizes the device as fractions of the measured
	// aggregate checkpoint footprint.
	DeviceFractions []float64
	// Policies are the params.EvictPolicy values to compare.
	Policies []string
}

// capacityTrace is the skewed Fig. 10 trace the capacity, chaos and slo
// experiments replay. The Azure traces the paper replays are heavily
// skewed — a small set of functions receives most invocations (Shahrad
// et al.) — and the skew is what separates the eviction policies: under
// a uniform mix, restore value per byte nearly coincides with size, and
// costbenefit degenerates into largest-first.
func capacityTrace() Workload {
	return Workload{
		RPS:      150,
		Duration: 60 * des.Second,
		// Shorter than the Fig. 10 window: the replayed trace's ~10 s calm
		// gaps must outlive idle instances so that every burst goes back
		// through the checkpoint store — the regime where eviction policy
		// is visible at all.
		KeepAlive: 3 * des.Second,
		// Popularity is deliberately not aligned with footprint. Cnn — the
		// largest active image — is also the hottest function, the case
		// where size-only eviction is wrong: largest-first always evicts
		// it first, costbenefit keeps it and sheds cold images instead.
		// Bert is inactive — a resident 630 MiB checkpoint with no
		// arrivals, the stale-image lifecycle case (§8) eviction exists
		// to clean up; it also cannot fit the 25% device at all, so with
		// traffic it would pin every policy's cold tail to its own cold
		// start and mask the comparison.
		Weights: map[string]float64{
			"Cnn": 20, "Json": 2, "Float": 2, "Rnn": 2, "Chameleon": 1,
			"Bert": 0,
		},
		Seed: 7,
	}
}

// DefaultCapacityConfig returns the skewed Fig. 10 trace with the
// paper-default watermarks and every eviction policy.
func DefaultCapacityConfig() CapacityConfig {
	return CapacityConfig{
		Workload:        capacityTrace(),
		DeviceFractions: []float64{1.0, 0.5, 0.25},
		Policies:        CapacityPolicies,
	}
}

// CapacityRun is one (policy, device fraction) replay.
type CapacityRun struct {
	Policy      string
	DevFrac     float64
	DeviceBytes int64
	Results     porter.Results
	// ColdP50/ColdP99 summarize requests served without a resident
	// checkpoint — the latency cost of eviction.
	ColdP50, ColdP99 des.Time
	// Fingerprint is the replay's determinism hash (porter.Results).
	Fingerprint uint64
}

// CapacityResult holds the sweep plus the measured footprint.
type CapacityResult struct {
	Cfg CapacityConfig
	// FootprintBytes is the device occupancy after checkpointing the
	// whole suite on an ample device: the dedup-aware aggregate
	// footprint the DeviceFractions scale.
	FootprintBytes int64
	Runs           []CapacityRun
}

// Capacity runs the device-size sweep: measure the aggregate
// checkpoint footprint, then replay the trace at every (fraction,
// policy) pair.
func Capacity(p params.Params, cfg CapacityConfig) (*CapacityResult, error) {
	// Static migrate-on-write keeps the sweep about eviction policy, not
	// tiering adaptation; chaos, slo, fabric and xray replay the same
	// design for the same reason.
	specs, profiles, err := calibrated(p, cfg.Workload, DesignCXLforkMoW.Scenarios())
	if err != nil {
		return nil, fmt.Errorf("capacity: %w", err)
	}
	footprint, err := capacityFootprint(p, specs, profiles, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The fraction×policy grid, fraction-major and policy-minor.
	np := len(cfg.Policies)
	runs, err := sweep(p, len(cfg.DeviceFractions)*np, func(i int) (CapacityRun, error) {
		pol, frac := cfg.Policies[i%np], cfg.DeviceFractions[i/np]
		run, err := capacityRun(p, cfg.Workload, pol, frac, footprint, specs, profiles)
		if err != nil {
			return CapacityRun{}, fmt.Errorf("capacity %s@%.0f%%: %w", pol, 100*frac, err)
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	return &CapacityResult{Cfg: cfg, FootprintBytes: footprint, Runs: runs}, nil
}

// capacityFootprint checkpoints the whole suite on an ample device and
// returns the resulting occupancy: metadata plus every distinct data
// frame, dedup-shared frames counted once. The leg's trace is empty
// and never replayed.
func capacityFootprint(p params.Params, specs []faas.Spec, profiles map[porter.ProfileKey]porter.Profile, seed int64) (int64, error) {
	leg, err := NewLeg(p, 2, DesignCXLforkMoW, Workload{Seed: seed}, 0, specs, profiles)
	if err != nil {
		return 0, err
	}
	fp := leg.C.Dev.UsedBytes()
	if fp == 0 {
		return 0, fmt.Errorf("capacity: suite left no checkpoint footprint")
	}
	return fp, nil
}

func capacityRun(p params.Params, wl Workload, policy string, frac float64, footprint int64, specs []faas.Spec, profiles map[porter.ProfileKey]porter.Profile) (CapacityRun, error) {
	if _, err := porter.ParseEvictPolicy(policy); err != nil {
		return CapacityRun{}, err
	}
	p.EvictPolicy = policy
	p.CXLBytes = scaledBytes(p, footprint, frac)
	leg, err := NewLeg(p, 2, DesignCXLforkMoW, wl, 0, specs, profiles)
	if err != nil {
		return CapacityRun{}, err
	}
	results := leg.Run()

	run := CapacityRun{
		Policy:      policy,
		DevFrac:     frac,
		DeviceBytes: p.CXLBytes,
		Results:     results,
		Fingerprint: results.Fingerprint(),
	}
	if cl := results.ColdLatency; cl != nil && cl.Count() > 0 {
		run.ColdP50, run.ColdP99 = cl.P50(), cl.P99()
	}
	return run, nil
}

// run returns the replay for (policy, frac), or nil.
func (r *CapacityResult) run(policy string, frac float64) *CapacityRun {
	for i := range r.Runs {
		if r.Runs[i].Policy == policy && r.Runs[i].DevFrac == frac {
			return &r.Runs[i]
		}
	}
	return nil
}

// Render prints one table per device size: per-policy eviction
// activity, degradation counters, and the cold-start latency the
// evictions cost. Evicted bytes are actual device occupancy deltas
// (dedup-aware), not declared image footprints.
func (r *CapacityResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Capacity sweep — aggregate checkpoint footprint %d MiB (dedup-aware), Fig. 10 trace %.0f rps × %s\n",
		r.FootprintBytes>>20, r.Cfg.RPS, compact(r.Cfg.Duration))
	for _, frac := range r.Cfg.DeviceFractions {
		fmt.Fprintf(w, "\nDevice = %.0f%% of footprint\n", 100*frac)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Policy\tDevice\tEvicted\tFreed\tDeferred\tRefused\tReckpt\tColdReqs\tCold P50\tCold P99\tOverall P99")
		for _, pol := range r.Cfg.Policies {
			run := r.run(pol, frac)
			if run == nil {
				continue
			}
			res := run.Results
			coldReqs := 0
			if res.ColdLatency != nil {
				coldReqs = res.ColdLatency.Count()
			}
			cold50, cold99 := "-", "-"
			if coldReqs > 0 {
				cold50, cold99 = compact(run.ColdP50), compact(run.ColdP99)
			}
			fmt.Fprintf(tw, "%s\t%d MiB\t%d\t%d MiB\t%d MiB\t%d\t%d\t%d\t%s\t%s\t%s\n",
				pol, run.DeviceBytes>>20,
				res.EvictedCkpts, res.EvictedBytes>>20, res.DeferredBytes>>20,
				res.CkptRefused, res.Recheckpoints,
				coldReqs, cold50, cold99,
				compact(res.Overall.P99()))
		}
		tw.Flush()
	}

	// Headline: restore-value-aware eviction vs size-only eviction at
	// the tightest device.
	minFrac := r.Cfg.DeviceFractions[0]
	for _, f := range r.Cfg.DeviceFractions {
		if f < minFrac {
			minFrac = f
		}
	}
	cb, lg := r.run("costbenefit", minFrac), r.run("largest", minFrac)
	if cb != nil && lg != nil && cb.ColdP99 > 0 && lg.ColdP99 > 0 {
		fmt.Fprintf(w, "\nP99 cold start at %.0f%% device: costbenefit %s vs largest %s (%.2fx)\n",
			100*minFrac, compact(cb.ColdP99), compact(lg.ColdP99),
			float64(lg.ColdP99)/float64(cb.ColdP99))
	}

	for i := range r.Runs {
		run := &r.Runs[i]
		renderObservability(w, fmt.Sprintf("%s@%.0f%%: ", run.Policy, 100*run.DevFrac), run.Results)
	}
}
