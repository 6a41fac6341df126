package experiments

import (
	"bytes"
	"hash/fnv"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/trace"
)

// Constant pins for the two replay pipelines the worker goldens do not
// cover: a trimmed capacity sweep (footprint probe plus one replay per
// policy and device size) and a scaled-down AzureBench (the trajectory
// harness' replay leg). Both fold virtual-time facts only, so any change
// to calibration scenarios, design wiring, or trace generation moves
// them.
const (
	goldenCapacity   = 0xd6eb30b0d5e98518
	goldenAzureBench = 0x8cb0c9402955e0f8
)

// The capacity grid fans out like the other sweeps, so its pin holds
// at every golden worker count.
func TestGoldenCapacityPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	cfg := smallCapacityConfig()
	cfg.Duration = 8 * des.Second
	cfg.DeviceFractions = []float64{1.0, 0.5}
	cfg.Policies = []string{"lru", "costbenefit"}
	cfg.Weights = map[string]float64{"Json": 3}
	for _, workers := range goldenWorkerCounts {
		p := ExpParams()
		p.SimWorkers = workers
		r, err := Capacity(p, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := fnv.New64a()
		fpFold(h, uint64(r.FootprintBytes))
		for _, run := range r.Runs {
			fpFold(h, uint64(run.DeviceBytes), run.Fingerprint, uint64(run.ColdP99))
		}
		if got := h.Sum64(); got != uint64(goldenCapacity) {
			t.Fatalf("workers=%d: capacity fingerprint %#x, golden %#x", workers, got, uint64(goldenCapacity))
		}
	}
}

func TestGoldenAzureBenchPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	cfg := DefaultAzureBenchConfig()
	cfg.Requests = 20_000
	cfg.Duration = 8 * des.Second
	r, err := AzureBench(ExpParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fpFold(h, uint64(r.Arrivals), uint64(r.Completed), r.Events, uint64(r.SimTime), r.Fingerprint)
	if got := h.Sum64(); got != uint64(goldenAzureBench) {
		t.Fatalf("azurebench fingerprint %#x (arrivals %d, events %d), golden %#x",
			got, r.Arrivals, r.Events, uint64(goldenAzureBench))
	}
}

// Constant pins for the observers of a scaled-down AzureBench replay
// with the tracer, telemetry and x-ray all on: the Prometheus and CSV
// exports, the x-ray report's fingerprint (a hash of its rendered text),
// the tracer's span and drop counts, and a fold of every recorded span's
// fields. The observers sample the replay on every tick and request, so
// a probe, attribution or span-store rewrite that moves any observed
// value, deterministically or not, fails here.
const (
	goldenObservedResults   = 0xe0986dd75b65bfe4
	goldenObservedProm      = 0x7a821401f731c2fd
	goldenObservedCSV       = 0x6e2a113a74945526
	goldenObservedXRay      = 0x751735b096601d21
	goldenObservedTraceLen  = 35435
	goldenObservedTraceDrop = 0
	goldenObservedEvents    = 0x107bc9a443f0429b
)

// textHash is the FNV-1a hash of a rendered export or report.
func textHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// eventsHash fpFolds every field of every recorded span, in order.
func eventsHash(events []trace.Event) uint64 {
	h := fnv.New64a()
	for _, e := range events {
		fpFold(h, textHash(e.Name), textHash(e.Cat), uint64(e.Node), uint64(e.Track),
			uint64(e.Begin), uint64(e.Dur), uint64(e.Parent), uint64(e.Bytes), uint64(e.Pages))
	}
	return h.Sum64()
}

func TestGoldenAzureBenchObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	cfg := DefaultAzureBenchConfig()
	cfg.Requests = 20_000
	cfg.Duration = 8 * des.Second
	wl := Workload{
		RPS:       float64(cfg.Requests) / cfg.Duration.Seconds(),
		Duration:  cfg.Duration,
		Functions: []string{"Float", "Json"},
		Seed:      cfg.Seed,
	}
	p := ExpParams()
	specs, profiles, err := calibrated(p, wl, DesignCXLforkMoW.Scenarios())
	if err != nil {
		t.Fatal(err)
	}
	p.TraceEnabled, p.TelemetryEnabled, p.XRayEnabled = true, true, true
	leg, err := NewLeg(p, cfg.Nodes, DesignCXLforkMoW, wl, 12<<30, specs, profiles)
	if err != nil {
		t.Fatal(err)
	}
	res := leg.Run()
	c, po := leg.C, leg.Porter

	var prom, csv bytes.Buffer
	if err := po.Telemetry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := po.Telemetry().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	rep := c.XRay.Report()
	for _, pin := range []struct {
		name      string
		got, want uint64
	}{
		{"results fingerprint", res.Fingerprint(), goldenObservedResults},
		{"prometheus export", textHash(prom.String()), goldenObservedProm},
		{"csv export", textHash(csv.String()), goldenObservedCSV},
		{"xray fingerprint", rep.Fingerprint(), goldenObservedXRay},
		{"trace len", uint64(c.Trace.Len()), goldenObservedTraceLen},
		{"trace dropped", uint64(c.Trace.Dropped()), goldenObservedTraceDrop},
		{"trace events", eventsHash(c.Trace.Events()), goldenObservedEvents},
	} {
		if pin.got != pin.want {
			t.Errorf("%s %#x, golden %#x", pin.name, pin.got, pin.want)
		}
	}
}
