package experiments

import (
	"testing"

	"cxlfork/internal/cluster"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/fabric"
	"cxlfork/internal/porter"
)

// goldenFabric pins the fabric sweep's fold at the config below. The
// contract matches the §13 worker goldens: every SimWorkers count must
// reproduce it byte for byte, and a rerun in the same binary must too —
// the sweep's analytic contention model may not perturb event order.
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

func TestGoldenFabricWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	for _, workers := range goldenWorkerCounts {
		p := ExpParams()
		p.SimWorkers = workers
		r, err := FabricSweep(p, goldenFabricConfig())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if h := r.Fingerprint(); h != uint64(goldenFabric) {
			t.Fatalf("workers=%d: fabric fingerprint %#x, golden %#x", workers, h, uint64(goldenFabric))
		}
	}
}

func TestGoldenFabricRerunStability(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	p := ExpParams()
	a, err := FabricSweep(p, goldenFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := FabricSweep(p, goldenFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("rerun diverged: %#x vs %#x", a.Fingerprint(), b.Fingerprint())
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
		p.KeepAlive = 100 * des.Millisecond
		specs := faas.Suite()[:4]
		profiles, err := Calibrate(p, specs, DesignCXLforkMoW.Scenarios())
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if topology != "" {
			if c.Topo == nil || !c.Topo.Trivial() {
				t.Fatal("degenerate grid did not build a Trivial topology")
			}
			if c.Net != nil {
				t.Fatal("Trivial topology must not carry a Net")
			}
		}
		po, err := NewPorter(c, DesignCXLforkMoW, porter.Config{Profiles: profiles, Seed: 3}, specs)
		if err != nil {
			t.Fatal(err)
		}
		return po.Run(GenerateTrace(SpecNames(specs), nil, 60, 4*des.Second, 3)).Fingerprint()
	}
	flat := replay("")
	degenerate := replay(fabric.GridSpec(2, 1, 1))
	if flat != degenerate {
		t.Fatalf("degenerate topology diverged from flat model: %#x vs %#x", flat, degenerate)
	}
}
