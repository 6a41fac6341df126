package main

import (
	"fmt"
	"runtime"
	"time"

	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/criu"
	"cxlfork/internal/des"
	"cxlfork/internal/experiments"
	"cxlfork/internal/faas"
	"cxlfork/internal/mitosis"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
	"cxlfork/internal/rfork"
)

// job is one calibrate → build cluster → porter setup → generate trace
// → replay pipeline, assembled here from the layers' public functions
// the same way the simulator's own entry points assemble it, so each
// layer can be timed from outside.
type job struct {
	id        string // span job id
	p         params.Params
	nodes     int
	funcs     []string
	design    string // a cxlfork.WorkloadDesigns entry
	budget    int64  // porter per-node budget; 0 keeps node DRAM
	seed      int64  // porter seed: service-time jitter
	traceSeed int64  // arrival trace seed
	rps       float64
	duration  des.Time
	setupOnly bool // stop before the replay
}

// jobResult is what one pipeline run produced and how long its phases
// took on the wall clock.
type jobResult struct {
	res         porter.Results
	fingerprint string // 16 hex digits, as RunReport and the server print it
	arrivals    int
	events      uint64 // engine events dispatched, setup included
	legs        int    // calibration legs: functions × scenarios
	dramGiB     float64
	setup       time.Duration
	replay      time.Duration
	gc          gcDelta // filled only when tracing
}

// gcDelta is the allocator work done during a replay and the collector
// work done during the whole job. A served session's replay is too
// short to see a collection; its calibration is not.
type gcDelta struct {
	mallocs, bytes uint64 // replay only
	cycles         uint64 // whole job
	pause          time.Duration
}

// memStats reads the runtime's allocator statistics when tracing.
func memStats(rec *recorder) runtime.MemStats {
	var m runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&m)
	}
	return m
}

// scenarios mirrors the calibration scenarios the facade measures per
// design: the scratch cold start plus the design's own mechanism, and
// for dynamic tiering the policies it adapts across.
func scenarios(design string) ([]experiments.Scenario, error) {
	switch design {
	case "CXLfork":
		return []experiments.Scenario{experiments.ScenCold, experiments.ScenCXLfork,
			experiments.ScenCXLforkMoA, experiments.ScenCXLforkHT}, nil
	case "CXLfork-MoW":
		return []experiments.Scenario{experiments.ScenCold, experiments.ScenCXLfork}, nil
	case "CRIU-CXL":
		return []experiments.Scenario{experiments.ScenCold, experiments.ScenCRIU}, nil
	case "Mitosis-CXL":
		return []experiments.Scenario{experiments.ScenCold, experiments.ScenMitosis}, nil
	}
	return nil, fmt.Errorf("unknown design %q", design)
}

// runJob runs j, recording one span per layer call under parent.
func runJob(rec *recorder, j job, parent int) (*jobResult, error) {
	specs := make([]faas.Spec, 0, len(j.funcs))
	for _, name := range j.funcs {
		s, ok := faas.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown function %q", name)
		}
		specs = append(specs, s)
	}
	scens, err := scenarios(j.design)
	if err != nil {
		return nil, err
	}
	out := &jobResult{
		legs:    len(specs) * len(scens),
		dramGiB: float64(j.nodes) * float64(j.p.NodeDRAMBytes) / giB,
	}
	m0 := memStats(rec)
	start := time.Now()

	// Calibration runs with telemetry off, as the facade's does: it is a
	// sizing probe, not part of the observed replay.
	sp := rec.begin("calibrate", j.id, parent)
	pm := j.p
	pm.TelemetryEnabled = false
	ms, err := experiments.MeasureAll(pm, specs, scens)
	if err != nil {
		return nil, err
	}
	profiles := experiments.BuildProfiles(ms)
	rec.end(sp)

	sp = rec.begin("cluster.build", j.id, parent)
	c, err := cluster.New(j.p, j.nodes)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("porter.setup", j.id, parent)
	pcfg := porter.Config{Profiles: profiles, Seed: j.seed, NodeBudgetBytes: j.budget}
	switch j.design {
	case "CRIU-CXL":
		pcfg.Mechanism = criu.New(c.CXLFS)
	case "Mitosis-CXL":
		pcfg.Mechanism = mitosis.New()
	case "CXLfork-MoW":
		pcfg.Mechanism = core.New(c.Dev)
		pol := rfork.MigrateOnWrite
		pcfg.StaticPolicy = &pol
	default:
		pcfg.Mechanism = core.New(c.Dev)
		pcfg.DynamicTiering = true
	}
	po := porter.New(c, pcfg)
	err = po.Setup(specs)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("azure.generate", j.id, parent)
	trace := azure.Generate(azure.TraceConfig{
		TotalRPS: j.rps,
		Duration: j.duration,
		Loads:    azure.DefaultLoads(j.funcs),
		Seed:     j.traceSeed,
	})
	rec.end(sp)
	out.arrivals = len(trace)
	out.setup = time.Since(start)
	if j.setupOnly {
		return out, nil
	}

	m1 := memStats(rec)
	sp = rec.begin("porter.replay", j.id, parent)
	t0 := time.Now()
	out.res = po.Run(trace)
	out.replay = time.Since(t0)
	rec.end(sp)
	m2 := memStats(rec)
	out.gc = gcDelta{
		mallocs: m2.Mallocs - m1.Mallocs,
		bytes:   m2.TotalAlloc - m1.TotalAlloc,
		cycles:  uint64(m2.NumGC - m0.NumGC),
		pause:   time.Duration(m2.PauseTotalNs - m0.PauseTotalNs),
	}
	out.events = c.Eng.Executed()
	out.fingerprint = fmt.Sprintf("%016x", out.res.Fingerprint())
	return out, nil
}

// reportJobLayers reports the pipeline layers' per-layer metrics as
// medians over the jobs.
func reportJobLayers(b *bench, rs []*jobResult) {
	calib := median(b.rec.selfSeconds("calibrate"))
	var legs, dram, events, nsPerEvent, warm, coldForks, scratch []float64
	var allocs, bytesPer, cycles, pause, dropped, samples []float64
	for _, r := range rs {
		ev := float64(r.events)
		legs = append(legs, float64(r.legs))
		dram = append(dram, r.dramGiB)
		events = append(events, ev)
		nsPerEvent = append(nsPerEvent, float64(r.replay.Nanoseconds())/ev)
		warm = append(warm, float64(r.res.WarmStarts)/float64(max(r.res.Completed, 1)))
		coldForks = append(coldForks, float64(r.res.ColdForks))
		scratch = append(scratch, float64(r.res.ScratchCold))
		allocs = append(allocs, float64(r.gc.mallocs)/ev)
		bytesPer = append(bytesPer, float64(r.gc.bytes)/ev)
		cycles = append(cycles, float64(r.gc.cycles))
		pause = append(pause, r.gc.pause.Seconds())
		dropped = append(dropped, float64(r.res.TraceDropped))
		samples = append(samples, float64(r.res.TelemetrySamples))
	}
	b.layer("calibrate.s", calib, "s")
	b.layer("calibrate.legs", median(legs), "count")
	b.layer("calibrate.ms_per_leg", 1000*calib/median(legs), "ms")
	b.layer("cluster.build_s", median(b.rec.selfSeconds("cluster.build")), "s")
	b.layer("cluster.dram_gib", median(dram), "GiB")
	b.layer("porter.setup_s", median(b.rec.selfSeconds("porter.setup")), "s")
	b.layer("azure.generate_s", median(b.rec.selfSeconds("azure.generate")), "s")
	b.layer("porter.replay_s", median(b.rec.selfSeconds("porter.replay")), "s")
	b.layer("des.events", median(events), "count")
	b.layer("porter.ns_per_event", median(nsPerEvent), "ns")
	b.layer("porter.warm_frac", median(warm), "ratio")
	b.layer("porter.cold_forks", median(coldForks), "count")
	b.layer("porter.scratch_cold", median(scratch), "count")
	b.layer("gc.allocs_per_event", median(allocs), "count")
	b.layer("gc.bytes_per_event", median(bytesPer), "B")
	b.layer("gc.cycles", median(cycles), "count")
	b.layer("gc.pause_s", median(pause), "s")
	b.layer("trace.dropped", median(dropped), "count")
	b.layer("telemetry.samples", median(samples), "count")
}
