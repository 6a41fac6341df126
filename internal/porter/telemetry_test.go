package porter_test

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"

	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/fabric"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
)

// telemetryRun replays the golden bursty trace with sampling on and
// returns the porter (for its registry) and the results. A non-nil
// rule set wires the CXLfork mechanism to the cluster fault plan.
func telemetryRun(t *testing.T, lanes int, rules []faultinject.Rule) (*porter.Porter, porter.Results) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 1 << 30
	p.CheckpointLanes = lanes
	p.RestoreLanes = lanes
	p.TelemetryEnabled = true
	c := cluster.MustNew(p, 2)
	for _, r := range rules {
		c.Faults.Inject(r)
	}
	mech := core.New(c.Dev)
	if len(rules) > 0 {
		mech.Faults = c.Faults
	}
	po := porter.New(c, porter.Config{
		Mechanism:       mech,
		Profiles:        profiles("CXLfork"),
		NodeBudgetBytes: 1 << 30,
		Seed:            1,
	})
	if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	trace := azure.Generate(azure.TraceConfig{
		TotalRPS: 40,
		Duration: 10 * des.Second,
		Loads:    azure.DefaultLoads([]string{"Tiny"}),
		Seed:     7,
	})
	return po, po.Run(trace)
}

// exports renders the run's Prometheus and CSV dumps.
func exports(t *testing.T, po *porter.Porter) (prom, csv string) {
	t.Helper()
	reg := po.Telemetry()
	var pb, cb bytes.Buffer
	if err := reg.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return pb.String(), cb.String()
}

// exportHash is the FNV-1a hash of one rendered export.
func exportHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestTelemetryGoldenExports is the export determinism gate: two
// identical seeded replays must produce byte-identical Prometheus and
// CSV dumps — for the sequential baseline, the parallel-lane
// configuration, and a run with a node crash injected — and each dump
// must hash to its constant pin, so a probe that changes a value
// deterministically fails too.
func TestTelemetryGoldenExports(t *testing.T) {
	crash := []faultinject.Rule{{
		Kind: faultinject.CrashNode,
		Step: faultinject.StepCheckpointGlobal,
		Node: 0,
	}}
	for _, tc := range []struct {
		name      string
		lanes     int
		rules     []faultinject.Rule
		prom, csv uint64
	}{
		{"lanes=1", 1, nil, 0x751d7f3df73253da, 0xf4e0c0224419057b},
		{"lanes=4", 4, nil, 0x7aa5f80474ce8e57, 0xd6e358eb6f9c5a22},
		{"lanes=2/crash", 2, crash, 0x6507dbc10916e763, 0x7f208b8a9a361bf5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			poA, resA := telemetryRun(t, tc.lanes, tc.rules)
			poB, resB := telemetryRun(t, tc.lanes, tc.rules)
			promA, csvA := exports(t, poA)
			promB, csvB := exports(t, poB)
			if promA != promB {
				t.Fatal("Prometheus exports differ between identical runs")
			}
			if csvA != csvB {
				t.Fatal("CSV exports differ between identical runs")
			}
			if h := exportHash(promA); h != tc.prom {
				t.Errorf("Prometheus export hash %#x, golden %#x", h, tc.prom)
			}
			if h := exportHash(csvA); h != tc.csv {
				t.Errorf("CSV export hash %#x, golden %#x", h, tc.csv)
			}
			if resA.Fingerprint() != resB.Fingerprint() {
				t.Fatal("fingerprints differ between identical runs")
			}
			// The equality must not be about an empty registry.
			if resA.TelemetrySamples < 10 {
				t.Fatalf("only %d samples recorded", resA.TelemetrySamples)
			}
			for _, want := range []string{"porter_completed_total", "cxl_utilization", "kernel_faults_total"} {
				if !strings.Contains(promA, want) {
					t.Fatalf("export missing series %s", want)
				}
			}
		})
	}
}

// pooledRun replays the golden bursty trace on a 3-device pool behind
// a 2-switch grid, each checkpoint placed on 2 devices, with sampling
// on or off.
func pooledRun(t *testing.T, sampled bool) (*porter.Porter, porter.Results) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 1 << 30
	p.Topology = fabric.GridSpec(2, 2, 3)
	p.ReplicationFactor = 2
	p.TelemetryEnabled = sampled
	c := cluster.MustNew(p, 2)
	po := porter.New(c, porter.Config{
		Mechanism:       core.New(c.Dev),
		Profiles:        profiles("CXLfork"),
		NodeBudgetBytes: 1 << 30,
		Seed:            1,
	})
	if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	return po, po.Run(azure.Generate(azure.TraceConfig{
		TotalRPS: 40,
		Duration: 10 * des.Second,
		Loads:    azure.DefaultLoads([]string{"Tiny"}),
		Seed:     7,
	}))
}

// TestTelemetryNeutralFingerprint is the acceptance gate for sampling
// neutrality: the replay's Results fingerprint must be identical with
// telemetry on and off, and the sampled run must actually record — on
// one device, and on a replicated pool behind a switched fabric, whose
// replica manager and fabric net must register and sample their series.
func TestTelemetryNeutralFingerprint(t *testing.T) {
	plain := goldenRun(t, 2, 7)
	po, res := telemetryRun(t, 2, nil)
	if got := res.Fingerprint(); got != plain {
		t.Fatalf("telemetry changed the porter fingerprint: %#x vs %#x", got, plain)
	}
	if res.TelemetrySamples == 0 || po.Telemetry().Ticks() == 0 {
		t.Fatal("sampled run recorded nothing")
	}

	_, plainPool := pooledRun(t, false)
	po, res = pooledRun(t, true)
	if got, want := res.Fingerprint(), plainPool.Fingerprint(); got != want {
		t.Fatalf("telemetry changed the pooled porter fingerprint: %#x vs %#x", got, want)
	}
	if res.ReplicasPlaced < 2 {
		t.Fatalf("ReplicasPlaced = %d: the pool did not replicate", res.ReplicasPlaced)
	}
	sampledSeries := map[string]int{}
	for _, s := range po.Telemetry().Series() {
		for _, prefix := range []string{"replica_", "cxlfork_fabric_"} {
			if strings.HasPrefix(s.Key(), prefix) && s.Len() > 0 {
				sampledSeries[prefix]++
			}
		}
	}
	if sampledSeries["replica_"] != 8 || sampledSeries["cxlfork_fabric_"] != 4 {
		t.Fatalf("sampled series by prefix = %v, want 8 replica_ and 4 cxlfork_fabric_", sampledSeries)
	}
}

// sloRun replays a steady load on a device sized so the resident Tiny
// checkpoint alone violates the occupancy objective. With drive on,
// the firing alert must reclaim early; without, only the (never
// reached) high watermark could.
func sloRun(t *testing.T, drive bool) (*porter.Porter, porter.Results) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 16 << 20 // Tiny's checkpoint occupies well over half
	p.CXLLowWatermark = 0.2
	p.TelemetryEnabled = true
	p.SLOOccupancy = 0.3
	p.SLODriveReclaim = drive
	c := cluster.MustNew(p, 2)
	po := porter.New(c, porter.Config{
		Mechanism:       core.New(c.Dev),
		Profiles:        profiles("CXLfork"),
		NodeBudgetBytes: 1 << 30,
		Seed:            1,
	})
	if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	return po, po.Run(steadyTrace(100, 50*des.Millisecond))
}

// TestSLOAlertDrivesReclaim is the observe→act e2e: the occupancy
// burn-rate alert fires in both runs, but only the driven run turns
// it into capacity-manager action — early reclaim passes and a device
// brought under the objective — while the observing run never
// reclaims because the high watermark is never reached.
func TestSLOAlertDrivesReclaim(t *testing.T) {
	poObs, obs := sloRun(t, false)
	poDrv, drv := sloRun(t, true)

	if obs.SLOAlertsFired == 0 || drv.SLOAlertsFired == 0 {
		t.Fatalf("occupancy alert never fired: observe %d, drive %d",
			obs.SLOAlertsFired, drv.SLOAlertsFired)
	}
	if len(poObs.SLOAlerts()) == 0 || len(poDrv.SLOAlerts()) == 0 {
		t.Fatal("no alert transitions recorded")
	}
	if obs.ReclaimPasses != 0 {
		t.Fatalf("observing run reclaimed %d times without being driven", obs.ReclaimPasses)
	}
	if drv.ReclaimPasses == 0 {
		t.Fatal("firing alert did not trigger early reclaim")
	}
	if drv.EvictedCkpts == 0 {
		t.Fatal("early reclaim evicted nothing")
	}
	// The driven run ends with the device under the objective.
	last, ok := poDrv.Telemetry().Lookup("cxl_utilization").Last()
	if !ok {
		t.Fatal("no utilization samples")
	}
	if last.V > 0.3 {
		t.Fatalf("driven run still over objective: utilization %.2f", last.V)
	}
}

// The cold-start P99 probe reads the run's own cold latencies: its
// final sample is ColdLatency's P99, and a second Run on the same
// porter starts the running percentile over with ColdLatency.
func TestColdP99ProbeFollowsEachRun(t *testing.T) {
	po, res := telemetryRun(t, 1, nil)
	series := po.Telemetry().Lookup("porter_cold_p99_ns")
	check := func(run string, res porter.Results) {
		t.Helper()
		last, ok := series.Last()
		if !ok || res.ColdLatency.Count() == 0 {
			t.Fatalf("%s: no probe sample or no cold start (%d)", run, res.ColdLatency.Count())
		}
		if want := float64(res.ColdLatency.P99()); last.V != want {
			t.Fatalf("%s: probe read %v, ColdLatency P99 %v", run, last.V, want)
		}
	}
	check("first run", res)
	// A lighter trace whose cold tail sits below the first run's.
	check("second run", po.Run(azure.Generate(azure.TraceConfig{
		TotalRPS: 5,
		Duration: 10 * des.Second,
		Loads:    azure.DefaultLoads([]string{"Tiny"}),
		Seed:     9,
	})))
}
