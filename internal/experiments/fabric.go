package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cxlfork/internal/cluster"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/fabric"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
)

// The fabric experiment (DESIGN.md §14, EXPERIMENTS.md "-exp fabric")
// sweeps the modeled CXL fabric: a grid topology (hosts and devices
// round-robined across a switch chain) replayed under the skewed
// Fig. 10 trace for every devices × switches × placement-policy cell.
// Restores are routed from the nearest healthy replica and charged the
// real per-link path latency plus stream contention, so the sweep
// shows both headline effects the flat model cannot: the single-device
// configuration's restore tail collapsing under link queueing, and
// locality-aware placement beating the pure consistent-hash ring on
// restore P99 once the fabric has more than one switch.

// FabricExpConfig tunes the topology sweep.
type FabricExpConfig struct {
	// RPS and Duration shape the replayed Fig. 10 trace.
	RPS      float64
	Duration des.Time
	// Nodes is the cluster (and topology host) count.
	Nodes int
	// Switches and Devices are the grid axes.
	Switches []int
	Devices  []int
	// Policies are the replica placement policies compared ("hash",
	// "locality"). Single-device cells only run "hash" — with one
	// device there is nothing to place.
	Policies []string
	// Factor is the replication factor, clamped per cell to the
	// device count.
	Factor int
	// PoolHeadroom sizes total pool capacity as a multiple of the
	// suite's measured checkpoint footprint.
	PoolHeadroom float64
	// KeepAlive, Functions, Weights, Seed: as in CapacityConfig.
	KeepAlive des.Time
	Functions []string
	Weights   map[string]float64
	Seed      int64
}

// DefaultFabricExpConfig is a four-host sweep over 1–2 switches,
// 1/2/6 devices, hash vs locality placement at replication factor 3.
func DefaultFabricExpConfig() FabricExpConfig {
	return FabricExpConfig{
		// 300 rps over a short horizon is deliberately past the knee
		// for the weakest cells: the stressed links queue visibly while
		// every cell can still serve. Longer horizons drive the
		// saturated single-device cells into open-loop collapse, which
		// stops being a placement comparison.
		RPS:      300,
		Duration: 15 * des.Second,
		Nodes:    4,
		Switches: []int{1, 2},
		Devices:  []int{1, 2, 6},
		Policies: []string{"hash", "locality"},
		// Factor 3 gives placement a real decision on both sides of the
		// fabric: the ingest-affine copy is pinned to device 0, so with
		// only two copies the single ring pick fully determines coverage
		// and the restore tail collapses onto the affinity device for
		// every policy alike.
		Factor: 3,
		// Headroom must keep the per-device share (total / devices)
		// above one suite footprint: the ingest-affine device holds a
		// copy of every image, and a sweep that starves it measures
		// eviction thrash, not fabric contention.
		PoolHeadroom: 7.5,
		// A short keep-alive makes the replay restore-heavy: idle
		// instances die fast, so most requests cold-fork off the
		// fabric and the per-link contention actually bites — the
		// regime where topology decides the tail.
		KeepAlive: 100 * des.Millisecond,
		// Two big-footprint functions run hot: the consistent-hash ring
		// happens to stack both of their non-affinity copies on the same
		// device, which is exactly the accident locality placement is
		// there to fix.
		Weights: map[string]float64{
			"Cnn": 20, "HTML": 8, "Json": 2, "Float": 2, "Rnn": 2,
			"Chameleon": 1, "Bert": 0,
		},
		Seed: 7,
	}
}

// FabricRun is one (switches, devices, policy) replay.
type FabricRun struct {
	Switches int
	Devices  int
	Policy   string
	Results  porter.Results
	ColdP99  des.Time
	// RestoreP99 is the restore-phase tail (profile restore + failover
	// probing + fabric charge) — the metric placement policies control.
	RestoreP99 des.Time
	// MinLinkLat is the built topology's fastest link: the shortest delay
	// any cross-node transfer can see (the report's Lookahead column).
	MinLinkLat des.Time
	// Fingerprint is the replay's determinism hash.
	Fingerprint uint64
}

// FabricResult holds the sweep plus the measured footprint.
type FabricResult struct {
	Cfg            FabricExpConfig
	FootprintBytes int64
	PoolBytes      int64
	Runs           []FabricRun
}

// FabricSweep measures the suite footprint, then replays the trace for
// every (switches, devices, policy) cell of the grid.
func FabricSweep(p params.Params, cfg FabricExpConfig) (*FabricResult, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("fabric: need at least 2 nodes, got %d", cfg.Nodes)
	}
	specs, err := ResolveFunctions(cfg.Functions)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	profiles, err := Calibrate(p, specs, DesignCXLforkMoW.Scenarios())
	if err != nil {
		return nil, err
	}
	footprint, err := capacityFootprint(p, specs, profiles, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &FabricResult{Cfg: cfg, FootprintBytes: footprint}

	type cell struct {
		sw, dev int
		pol     string
	}
	var grid []cell
	for _, sw := range cfg.Switches {
		for _, dev := range cfg.Devices {
			for _, pol := range cfg.Policies {
				if dev == 1 && pol != "hash" {
					continue // one device: placement has no choice
				}
				grid = append(grid, cell{sw, dev, pol})
			}
		}
	}
	runs := make([]FabricRun, len(grid))
	pools := make([]int64, len(grid))
	errs := make([]error, len(grid))
	des.NewPool(p.SimWorkers).Each(len(grid), func(i int) {
		runs[i], pools[i], _, errs[i] = fabricRun(p, cfg, grid[i].sw, grid[i].dev, grid[i].pol, footprint, specs, profiles)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fabric sw=%d dev=%d pol=%s: %w", grid[i].sw, grid[i].dev, grid[i].pol, err)
		}
	}
	res.Runs = runs
	res.PoolBytes = pools[len(pools)-1]
	return res, nil
}

// fabricRun is one replay on a GridSpec(nodes, sw, dev) topology. The
// cluster is returned alongside the run so the xray experiment can
// read attribution state off the same replay.
func fabricRun(p params.Params, cfg FabricExpConfig, sw, dev int, pol string, footprint int64, specs []faas.Spec, profiles map[porter.ProfileKey]porter.Profile) (FabricRun, int64, *cluster.Cluster, error) {
	if cfg.KeepAlive > 0 {
		p.KeepAlive = cfg.KeepAlive
	}
	p.Topology = fabric.GridSpec(cfg.Nodes, sw, dev)
	p.PlacementPolicy = pol
	p.ReplicationFactor = cfg.Factor
	if p.ReplicationFactor > dev {
		p.ReplicationFactor = dev
	}
	p.CXLBytes = scaledBytes(p, footprint, cfg.PoolHeadroom)

	c, err := cluster.New(p, cfg.Nodes)
	if err != nil {
		return FabricRun{}, 0, nil, err
	}
	po, err := NewPorter(c, DesignCXLforkMoW, porter.Config{Profiles: profiles, Seed: cfg.Seed}, specs)
	if err != nil {
		return FabricRun{}, 0, nil, err
	}
	results := po.Run(GenerateTrace(SpecNames(specs), cfg.Weights, cfg.RPS, cfg.Duration, cfg.Seed))

	run := FabricRun{
		Switches:    sw,
		Devices:     dev,
		Policy:      pol,
		Results:     results,
		MinLinkLat:  c.Topo.MinLinkLatency(),
		Fingerprint: results.Fingerprint(),
	}
	if cl := results.ColdLatency; cl != nil && cl.Count() > 0 {
		run.ColdP99 = cl.P99()
	}
	if rl := results.RestoreLatency; rl != nil && rl.Count() > 0 {
		run.RestoreP99 = rl.P99()
	}
	return run, p.CXLBytes, c, nil
}

// run returns the replay for (sw, dev, pol), or nil.
func (r *FabricResult) run(sw, dev int, pol string) *FabricRun {
	for i := range r.Runs {
		if r.Runs[i].Switches == sw && r.Runs[i].Devices == dev && r.Runs[i].Policy == pol {
			return &r.Runs[i]
		}
	}
	return nil
}

// Fingerprint folds every cell's replay fingerprint in sweep order —
// the hash the golden worker-equivalence tests and the CI double-run
// diff compare.
func (r *FabricResult) Fingerprint() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for i := range r.Runs {
		fold(uint64(r.Runs[i].Switches))
		fold(uint64(r.Runs[i].Devices))
		fold(uint64(len(r.Runs[i].Policy)))
		fold(r.Runs[i].Fingerprint)
	}
	return h
}

// Render prints one table per switch count, then the headline
// collapse-vs-sharding and hash-vs-locality verdicts.
func (r *FabricResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fabric sweep — %d hosts, %d MiB pool (%.1fx of %d MiB footprint), RF %d, Fig. 10 trace %.0f rps × %s\n",
		r.Cfg.Nodes, r.PoolBytes>>20, r.Cfg.PoolHeadroom, r.FootprintBytes>>20,
		r.Cfg.Factor, r.Cfg.RPS, compact(r.Cfg.Duration))
	for _, sw := range r.Cfg.Switches {
		fmt.Fprintf(w, "\n%d switch(es)\n", sw)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Devices\tPolicy\tLookahead\tTransfers\tQueued\tQueueDelay\tExtraDelay\tRestore P99\tCold P99\tOverall P99")
		for _, dev := range r.Cfg.Devices {
			for _, pol := range r.Cfg.Policies {
				run := r.run(sw, dev, pol)
				if run == nil {
					continue
				}
				res := run.Results
				cold, rest := "-", "-"
				if run.ColdP99 > 0 {
					cold = compact(run.ColdP99)
				}
				if run.RestoreP99 > 0 {
					rest = compact(run.RestoreP99)
				}
				fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%d\t%s\t%s\t%s\t%s\t%s\n",
					dev, pol, compact(run.MinLinkLat), res.FabricTransfers, res.FabricQueued,
					compact(res.FabricQueueDelay), compact(res.FabricExtraDelay),
					rest, cold, compact(res.Overall.P99()))
			}
		}
		tw.Flush()
	}

	fmt.Fprintln(w)
	// Headline 1: single-device collapse vs the sharded pool at the
	// largest switch count.
	maxSw := r.Cfg.Switches[len(r.Cfg.Switches)-1]
	maxDev := r.Cfg.Devices[len(r.Cfg.Devices)-1]
	single := r.run(maxSw, 1, "hash")
	sharded := r.run(maxSw, maxDev, "hash")
	if single != nil && sharded != nil && single.RestoreP99 > 0 && sharded.RestoreP99 > 0 {
		verdict := "sharding wins"
		if sharded.RestoreP99 >= single.RestoreP99 {
			verdict = "no sharded win at this load"
		}
		fmt.Fprintf(w, "%d switches: single-device restore P99 %s vs %d-device %s (%.2fx) — %s\n",
			maxSw, compact(single.RestoreP99), maxDev, compact(sharded.RestoreP99),
			float64(single.RestoreP99)/float64(sharded.RestoreP99), verdict)
	}
	// Headline 2: hash vs locality per multi-switch, multi-device cell.
	for _, sw := range r.Cfg.Switches {
		if sw < 2 {
			continue
		}
		for _, dev := range r.Cfg.Devices {
			hr, lr := r.run(sw, dev, "hash"), r.run(sw, dev, "locality")
			if hr == nil || lr == nil || hr.RestoreP99 <= 0 || lr.RestoreP99 <= 0 {
				continue
			}
			verdict := "locality beats hash on restore P99"
			if lr.RestoreP99 >= hr.RestoreP99 {
				verdict = "hash holds at this cell"
			}
			fmt.Fprintf(w, "%d switches, %d devices: hash restore P99 %s vs locality %s — %s\n",
				sw, dev, compact(hr.RestoreP99), compact(lr.RestoreP99), verdict)
		}
	}
	fmt.Fprintf(w, "sweep fingerprint: %#x (byte-identical at any -workers)\n", r.Fingerprint())
	for i := range r.Runs {
		run := &r.Runs[i]
		renderObservability(w, fmt.Sprintf("sw%d/dev%d/%s: ", run.Switches, run.Devices, run.Policy), run.Results)
	}
}
