package experiments

import (
	"fmt"
	"strings"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/fabric"
)

// goldenFabric pins the fabric sweep's fold at the config below. The
// contract matches the §13 worker goldens: every SimWorkers count must
// reproduce it byte for byte, a rerun in the same binary must too — the
// sweep's analytic contention model may not perturb event order — and
// so must a sweep with attribution on.
const goldenFabric = 0x9e58559b4eaf7d7a

// goldenFabricConfig is a trimmed two-cell-per-switch sweep that still
// crosses the interesting axes: single vs sharded, hash vs locality.
func goldenFabricConfig() FabricExpConfig {
	cfg := DefaultFabricExpConfig()
	cfg.RPS = 120
	cfg.Duration = 4 * des.Second
	cfg.Switches = []int{2}
	cfg.Devices = []int{1, 6}
	return cfg
}

// TestGoldenFabricWorkerEquivalence replays goldenFabricConfig in one
// process at every golden worker count, first with attribution off and
// then with it on. Every fold must equal goldenFabric: the sweep is
// worker-invariant, an in-process rerun reproduces it, and attribution
// leaves each cell's replay fingerprint at its attribution-off value.
// Each cell's blame report must render byte-identically at every worker
// count.
func TestGoldenFabricWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	var cells []uint64 // each cell's fingerprint, attribution off
	var blame []string // each cell's blame report, first attributed sweep
	for _, attributed := range []bool{false, true} {
		for _, workers := range goldenWorkerCounts {
			p := ExpParams()
			p.SimWorkers = workers
			p.XRayEnabled = attributed
			r, err := FabricSweep(p, goldenFabricConfig())
			if err != nil {
				t.Fatalf("xray=%v workers=%d: %v", attributed, workers, err)
			}
			if h := r.Fingerprint(); h != uint64(goldenFabric) {
				t.Fatalf("xray=%v workers=%d: fabric fingerprint %#x, golden %#x", attributed, workers, h, uint64(goldenFabric))
			}
			for i, run := range r.Runs {
				cell := fmt.Sprintf("xray=%v workers=%d sw%d/dev%d/%s", attributed, workers, run.Switches, run.Devices, run.Policy)
				if len(cells) < len(r.Runs) {
					cells = append(cells, run.Fingerprint)
				}
				if run.Fingerprint != cells[i] {
					t.Fatalf("%s: fingerprint %#x, attribution off %#x", cell, run.Fingerprint, cells[i])
				}
				if (run.XRay != nil) != attributed {
					t.Fatalf("%s: blame report present = %v", cell, run.XRay != nil)
				}
				if !attributed {
					continue
				}
				if run.XRay.Requests == 0 {
					t.Fatalf("%s: empty blame report", cell)
				}
				var b strings.Builder
				run.XRay.WriteText(&b)
				if len(blame) < len(r.Runs) {
					blame = append(blame, b.String())
				} else if b.String() != blame[i] {
					t.Fatalf("%s: blame report differs from workers=%d", cell, goldenWorkerCounts[0])
				}
			}
		}
	}
}

// TestDegenerateTopologyMatchesFlatModel is the backward-compatibility
// wall: a 1-switch 1-device grid builds a Trivial topology, carries no
// Net, and must replay the trace byte-identically to today's flat
// single-pool model (no Topology at all). Any fabric-side charge that
// leaks into the degenerate case breaks every pinned golden in the
// repo, so this test fails first and points at the right layer.
func TestDegenerateTopologyMatchesFlatModel(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	replay := func(topology string) uint64 {
		t.Helper()
		p := ExpParams()
		p.Topology = topology
		specs := faas.Suite()[:4]
		profiles, err := Calibrate(p, specs, DesignCXLforkMoW.Scenarios())
		if err != nil {
			t.Fatal(err)
		}
		wl := Workload{RPS: 60, Duration: 4 * des.Second, KeepAlive: 100 * des.Millisecond, Seed: 3}
		leg, err := NewLeg(p, 2, DesignCXLforkMoW, wl, 0, specs, profiles)
		if err != nil {
			t.Fatal(err)
		}
		if topology != "" {
			if leg.C.Topo == nil || !leg.C.Topo.Trivial() {
				t.Fatal("degenerate grid did not build a Trivial topology")
			}
			if leg.C.Net != nil {
				t.Fatal("Trivial topology must not carry a Net")
			}
		}
		return leg.Run().Fingerprint()
	}
	flat := replay("")
	degenerate := replay(fabric.GridSpec(2, 1, 1))
	if flat != degenerate {
		t.Fatalf("degenerate topology diverged from flat model: %#x vs %#x", flat, degenerate)
	}
}
