package experiments

import (
	"bytes"
	"strings"
	"testing"

	"cxlfork/internal/des"
)

// smallChaosConfig shrinks the sweep to two functions, two factors, and
// a short trace so the test stays fast while still killing every
// device.
func smallChaosConfig() ChaosConfig {
	return ChaosConfig{
		Workload: Workload{
			RPS:       40,
			Duration:  12 * des.Second,
			KeepAlive: 2 * des.Second,
			Functions: []string{"Float", "Json"},
			Seed:      7,
		},
		Devices:              3,
		Factors:              []int{1, 2},
		KillAt:               4 * des.Second,
		PoolHeadroom:         4.5,
		RepairBandwidthPages: 8192,
	}
}

func TestChaosReplicationSurvivesDeviceLoss(t *testing.T) {
	p := ExpParams()
	r, err := Chaos(p, smallChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Two factors × (baseline + three kills).
	if len(r.Runs) != 8 {
		t.Fatalf("runs = %d, want 8", len(r.Runs))
	}

	// RF 1: every checkpoint lives only on the ingest device; killing it
	// must demonstrably lose images.
	if lost := r.LostImagesAt(1); lost == 0 {
		t.Fatal("rf=1: no images lost across single-device kills")
	}
	kill0 := r.run(1, 0)
	if kill0.Results.LostImages == 0 {
		t.Fatalf("rf=1 kill=dev0: LostImages = 0, want > 0: %+v", kill0.Results)
	}

	// RF 2: the loss of any single device must not fail a single
	// restore, and repair must converge.
	for kill := 0; kill < 3; kill++ {
		run := r.run(2, kill)
		if run == nil {
			t.Fatalf("missing rf=2 kill=%d run", kill)
		}
		res := run.Results
		if res.FailedRestores != 0 {
			t.Fatalf("rf=2 kill=dev%d: %d failed restores, want 0", kill, res.FailedRestores)
		}
		if res.LostImages != 0 {
			t.Fatalf("rf=2 kill=dev%d: %d lost images, want 0", kill, res.LostImages)
		}
		if !res.RepairConvergedOK {
			t.Fatalf("rf=2 kill=dev%d: repair did not converge (deficit %d)", kill, res.UnderReplicated)
		}
		if res.UnderReplicated != 0 {
			t.Fatalf("rf=2 kill=dev%d: run ended under-replicated by %d", kill, res.UnderReplicated)
		}
	}

	// Baselines see no faults and no failovers.
	for _, rf := range []int{1, 2} {
		base := r.run(rf, -1)
		if base.Results.FailedRestores != 0 || base.Results.LostImages != 0 || base.Results.Failovers != 0 {
			t.Fatalf("rf=%d baseline has fault activity: %+v", rf, base.Results)
		}
		if rf == 2 && base.Results.ReplicasPlaced < 2 {
			t.Fatalf("rf=2 baseline placed %d replicas, want >= 2", base.Results.ReplicasPlaced)
		}
	}

	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Chaos sweep", "Replication factor 1", "Replication factor 2",
		"loses checkpoints", "survives the loss of any single device"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestChaosIsDeterministic(t *testing.T) {
	cfg := smallChaosConfig()
	cfg.Factors = []int{2}
	a, err := Chaos(ExpParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(ExpParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		if a.Runs[i].Fingerprint != b.Runs[i].Fingerprint {
			t.Fatalf("rf=%d kill=%d: fingerprints diverge: %x vs %x",
				a.Runs[i].Factor, a.Runs[i].Killed, a.Runs[i].Fingerprint, b.Runs[i].Fingerprint)
		}
	}
}

func TestChaosRejectsSingleDevicePool(t *testing.T) {
	cfg := smallChaosConfig()
	cfg.Devices = 1
	if _, err := Chaos(ExpParams(), cfg); err == nil {
		t.Fatal("single-device chaos should be rejected")
	}
}
