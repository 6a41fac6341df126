package experiments

import (
	"fmt"
	"hash/fnv"
	"io"

	"cxlfork/internal/des"
	"cxlfork/internal/params"
	"cxlfork/internal/xray"
)

// The xray experiment (DESIGN.md §16, EXPERIMENTS.md "-exp xray") is
// the fabric sweep's stressed corner cell — the 2-switch, 6-device grid
// under the 300 rps restore-heavy Fig. 10 trace — replayed with
// critical-path attribution on, one policy per sweep cell. Where
// the fabric sweep reports that locality placement beats the
// consistent-hash ring on restore P99, the blame report says why: the
// per-link heatmap names the saturated link the hash ring stacks its
// hot-function replicas behind, and the fork-restore blame table shows
// how much of the tail is fabric transit versus restore service.

// DefaultXRayExpConfig is the default fabric sweep cut to its
// 2-switch/6-device corner — the cell where placement policy decides
// the restore tail.
func DefaultXRayExpConfig() FabricExpConfig {
	cfg := DefaultFabricExpConfig()
	cfg.Switches = []int{2}
	cfg.Devices = []int{6}
	return cfg
}

// XRayResult is a one-cell fabric sweep replayed with attribution on:
// every run carries its blame report.
type XRayResult FabricResult

// XRaySweep is FabricSweep with params.XRayEnabled set, so each
// placement policy's replay carries its blame report. cfg names one grid
// cell (one switch count, one device count), which Render reports on.
// Attribution is observational, so every run's fingerprint equals the
// plain fabric sweep's for the same cell.
func XRaySweep(p params.Params, cfg FabricExpConfig) (*XRayResult, error) {
	p.XRayEnabled = true
	r, err := FabricSweep(p, cfg)
	if err != nil {
		return nil, err
	}
	return (*XRayResult)(r), nil
}

// Fingerprint folds each policy's replay fingerprint and report
// fingerprint — the hash the CI double-run diff compares.
func (r *XRayResult) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, run := range r.Runs {
		fpFold(h, uint64(len(run.Policy)), run.Fingerprint, run.XRay.Fingerprint())
	}
	return h.Sum64()
}

// Render prints each policy's blame report, then the headline: which
// link each policy's restore tail blames.
func (r *XRayResult) Render(w io.Writer) {
	fc := r.Cfg
	fmt.Fprintf(w, "XRay blame — %d-switch/%d-device fabric cell, %d hosts, %d MiB pool, RF %d, Fig. 10 trace %.0f rps × %s\n",
		fc.Switches[0], fc.Devices[0], fc.Nodes, r.PoolBytes>>20, fc.Factor, fc.RPS, compact(fc.Duration))
	for i := range r.Runs {
		xr := &r.Runs[i]
		fmt.Fprintf(w, "\n== policy %s — restore P99 %s, overall P99 %s, fingerprint %#x ==\n",
			xr.Policy, compact(xr.RestoreP99), compact(xr.Results.Overall.P99()), xr.Fingerprint)
		xr.XRay.WriteText(w)
	}
	fmt.Fprintln(w)
	for i := range r.Runs {
		xr := &r.Runs[i]
		hottest := xr.XRay.HottestLink()
		if hottest == "" {
			continue
		}
		for _, l := range xr.XRay.Links {
			if l.Link != hottest {
				continue
			}
			line := fmt.Sprintf("%s: restore tail blames link %s — %s queued across %d transfers",
				xr.Policy, l.Link, compact(des.Time(l.QueuedNS)), l.Transfers)
			if cb := xr.XRay.Class("fork-restore"); cb != nil {
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
