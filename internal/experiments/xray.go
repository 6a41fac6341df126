package experiments

import (
	"fmt"
	"io"

	"cxlfork/internal/des"
	"cxlfork/internal/params"
	"cxlfork/internal/xray"
)

// The xray experiment (DESIGN.md §16, EXPERIMENTS.md "-exp xray")
// reruns the fabric sweep's stressed corner cell — the 2-switch,
// 6-device grid under the 300 rps restore-heavy Fig. 10 trace — with
// critical-path attribution enabled, once per placement policy. Where
// the fabric sweep reports that locality placement beats the
// consistent-hash ring on restore P99, the blame report says why: the
// per-link heatmap names the saturated link the hash ring stacks its
// hot-function replicas behind, and the fork-restore blame table shows
// how much of the tail is fabric transit versus restore service.

// XRayExpConfig tunes the attribution rerun.
type XRayExpConfig struct {
	// Fabric supplies trace shape, replication, headroom and policies;
	// its grid axes are ignored in favor of the single cell below.
	Fabric FabricExpConfig
	// Switches and Devices pick the one grid cell to attribute.
	Switches int
	Devices  int
}

// DefaultXRayExpConfig attributes the default fabric sweep's
// 2-switch/6-device corner — the cell where placement policy decides
// the restore tail.
func DefaultXRayExpConfig() XRayExpConfig {
	return XRayExpConfig{Fabric: DefaultFabricExpConfig(), Switches: 2, Devices: 6}
}

// XRayRun is one policy's attributed replay.
type XRayRun struct {
	// Policy is the replica placement policy replayed.
	Policy string
	// Run carries the replay's fabric-sweep row (results, tails,
	// fingerprint).
	Run FabricRun
	// Report is the replay's attribution report.
	Report *xray.Report
}

// XRayResult holds the attributed replays plus sizing.
type XRayResult struct {
	// Cfg echoes the experiment configuration.
	Cfg XRayExpConfig
	// FootprintBytes is the suite's measured checkpoint footprint;
	// PoolBytes the derived pool capacity.
	FootprintBytes int64
	PoolBytes      int64
	// Runs holds one attributed replay per policy, in policy order.
	Runs []XRayRun
}

// XRaySweep replays the configured grid cell once per placement policy
// with attribution on and collects each replay's blame report.
// Attribution is observational, so every cell's replay fingerprint
// equals the plain fabric sweep's for the same cell.
func XRaySweep(p params.Params, cfg XRayExpConfig) (*XRayResult, error) {
	fc := cfg.Fabric
	if fc.Nodes < 2 {
		return nil, fmt.Errorf("xray: need at least 2 nodes, got %d", fc.Nodes)
	}
	specs, profiles, err := calibrated(p, fc.Workload, DesignCXLforkMoW.Scenarios())
	if err != nil {
		return nil, fmt.Errorf("xray: %w", err)
	}
	footprint, err := capacityFootprint(p, specs, profiles, fc.Seed)
	if err != nil {
		return nil, err
	}
	p.CXLBytes = scaledBytes(p, footprint, fc.PoolHeadroom)
	p.XRayEnabled = true
	res := &XRayResult{Cfg: cfg, FootprintBytes: footprint, PoolBytes: p.CXLBytes}
	for _, pol := range fc.Policies {
		if cfg.Devices == 1 && pol != "hash" {
			continue // one device: placement has no choice
		}
		run, c, err := fabricRun(p, fc, cfg.Switches, cfg.Devices, pol, specs, profiles)
		if err != nil {
			return nil, fmt.Errorf("xray sw=%d dev=%d pol=%s: %w", cfg.Switches, cfg.Devices, pol, err)
		}
		res.Runs = append(res.Runs, XRayRun{Policy: pol, Run: run, Report: c.XRay.Report()})
	}
	return res, nil
}

// Fingerprint folds each policy's replay fingerprint and report
// fingerprint — the hash the CI double-run diff compares.
func (r *XRayResult) Fingerprint() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for i := range r.Runs {
		fold(uint64(len(r.Runs[i].Policy)))
		fold(r.Runs[i].Run.Fingerprint)
		fold(r.Runs[i].Report.Fingerprint())
	}
	return h
}

// Render prints each policy's blame report, then the headline: which
// link each policy's restore tail blames.
func (r *XRayResult) Render(w io.Writer) {
	fc := r.Cfg.Fabric
	fmt.Fprintf(w, "XRay blame — %d-switch/%d-device fabric cell, %d hosts, %d MiB pool, RF %d, Fig. 10 trace %.0f rps × %s\n",
		r.Cfg.Switches, r.Cfg.Devices, fc.Nodes, r.PoolBytes>>20, fc.Factor, fc.RPS, compact(fc.Duration))
	for i := range r.Runs {
		xr := &r.Runs[i]
		fmt.Fprintf(w, "\n== policy %s — restore P99 %s, overall P99 %s, fingerprint %#x ==\n",
			xr.Policy, compact(xr.Run.RestoreP99), compact(xr.Run.Results.Overall.P99()), xr.Run.Fingerprint)
		xr.Report.WriteText(w)
	}
	fmt.Fprintln(w)
	for i := range r.Runs {
		xr := &r.Runs[i]
		hottest := xr.Report.HottestLink()
		if hottest == "" {
			continue
		}
		for _, l := range xr.Report.Links {
			if l.Link != hottest {
				continue
			}
			line := fmt.Sprintf("%s: restore tail blames link %s — %s queued across %d transfers",
				xr.Policy, l.Link, compact(des.Time(l.QueuedNS)), l.Transfers)
			if cb := xr.Report.Class("fork-restore"); cb != nil {
				for _, comp := range cb.Components {
					if comp.Component == xray.CompFabric {
						line += fmt.Sprintf(" (fork-restore fabric-transit total %s)", compact(des.Time(comp.TotalNS)))
					}
				}
			}
			fmt.Fprintln(w, line)
		}
	}
	fmt.Fprintf(w, "xray fingerprint: %#x (byte-identical at any -workers)\n", r.Fingerprint())
}
