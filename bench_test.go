package cxlfork

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md §3), plus ablations of the design choices the
// paper calls out. Each iteration regenerates the experiment's data from
// the mechanistic simulation; the custom metrics report the series the
// paper plots (latencies in virtual milliseconds, ratios). Run with
//
//	go test -bench=. -benchmem
//
// The full-figure benchmarks are heavy (seconds per iteration); use
// -benchtime=1x for a single regeneration. Calibration is memoized per
// process (DESIGN.md §13), so after the first iteration the figure
// benchmarks time memo hits; the paper metrics they report are
// unchanged.

import (
	"testing"

	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/experiments"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
	"cxlfork/internal/rfork"
	"cxlfork/internal/workflow"
)

// benchSpecs is a representative subset (one small cache-resident, one
// mid, one large cache-thrashing) used by per-figure benchmarks so an
// iteration stays in seconds; cmd/cxlsim regenerates figures over the
// full suite.
func benchSpecs() []faas.Spec {
	var out []faas.Spec
	for _, name := range []string{"Float", "Rnn", "Bert"} {
		s, _ := faas.ByName(name)
		out = append(out, s)
	}
	return out
}

func BenchmarkTable1Suite(b *testing.B) {
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		for _, s := range faas.Suite() {
			l := faas.ComputeLayout(p, s)
			if l.TotalPages() == 0 {
				b.Fatal("empty layout")
			}
		}
	}
}

func BenchmarkFig1Breakdown(b *testing.B) {
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(p, 16)
		if err != nil {
			b.Fatal(err)
		}
		var init float64
		for _, bd := range r.Breakdowns {
			init += bd.InitFrac
		}
		b.ReportMetric(100*init/float64(len(r.Breakdowns)), "init-%")
	}
}

func BenchmarkFig3cBertMotivation(b *testing.B) {
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3c(p)
		if err != nil {
			b.Fatal(err)
		}
		lf := r.Bert.ByScen[experiments.ScenLocalFork]
		cr := r.Bert.ByScen[experiments.ScenCRIU]
		b.ReportMetric(float64(cr.Restore)/float64(lf.E2E), "criu-restore/localfork-x")
		b.ReportMetric(float64(cr.LocalPages)/float64(lf.LocalPages), "criu-mem-x")
	}
}

func BenchmarkFig6ColdStartAnatomy(b *testing.B) {
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(p)
		if err != nil {
			b.Fatal(err)
		}
		var sum des.Time
		for _, row := range r.Rows {
			sum += row.StateInit
		}
		b.ReportMetric(sum.Millis()/float64(len(r.Rows)), "state-init-ms")
		b.ReportMetric(params.ContainerCreate.Millis(), "container-ms")
	}
}

func BenchmarkFig7aColdStart(b *testing.B) {
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		ms, err := experiments.MeasureAll(p, benchSpecs(), experiments.AllScenarios)
		if err != nil {
			b.Fatal(err)
		}
		r := experiments.Fig7Result{Measurements: ms}
		s := r.Summary()
		b.ReportMetric(s.CRIUOverCXLfork, "criu/cxlfork-x")
		b.ReportMetric(s.MitosisOverCXLfork, "mitosis/cxlfork-x")
		b.ReportMetric(s.CXLforkOverLocal, "cxlfork/localfork-x")
	}
}

func BenchmarkFig7bMemory(b *testing.B) {
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		ms, err := experiments.MeasureAll(p, benchSpecs(), experiments.AllScenarios)
		if err != nil {
			b.Fatal(err)
		}
		r := experiments.Fig7Result{Measurements: ms}
		s := r.Summary()
		b.ReportMetric(100*s.MemCXLforkOverCold, "cxlfork-mem-%of-cold")
		b.ReportMetric(100*s.MemSavedOverCRIU, "saved-vs-criu-%")
	}
}

func BenchmarkFig8Tiering(b *testing.B) {
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		ms, err := experiments.MeasureAll(p, benchSpecs(),
			[]experiments.Scenario{experiments.ScenCXLfork, experiments.ScenCXLforkMoA, experiments.ScenCXLforkHT})
		if err != nil {
			b.Fatal(err)
		}
		r := experiments.Fig8Result{Measurements: ms}
		s := r.Summary()
		b.ReportMetric(-100*s.MoAWarmSpeedup, "moa-warm-%")
		b.ReportMetric(100*s.MoAMemGrowth, "moa-mem-%")
	}
}

func BenchmarkFig9Sensitivity(b *testing.B) {
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(p)
		if err != nil {
			b.Fatal(err)
		}
		// Report Bert's warm penalty at the prototype latency.
		for _, pt := range r.Points {
			if pt.Function == "Bert" && pt.CXLLatency == 400*des.Nanosecond {
				b.ReportMetric(pt.WarmRel, "bert-warm-400ns-x")
			}
		}
	}
}

// fig10Bench runs the porter comparison at one memory fraction.
func fig10Bench(b *testing.B, frac float64) {
	p := experiments.ExpParams()
	cfg := experiments.DefaultFig10Config()
	cfg.Duration = 20 * des.Second
	cfg.MemoryFractions = []float64{frac}
	cfg.Functions = []string{"Float", "Json", "Rnn", "Bert"}
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var criuP99, cxlP99 des.Time
		for _, run := range r.Runs {
			switch run.Design {
			case experiments.DesignCRIU:
				criuP99 = run.P99
			case experiments.DesignCXLfork:
				cxlP99 = run.P99
			}
		}
		if criuP99 > 0 {
			b.ReportMetric(float64(cxlP99)/float64(criuP99), "cxlfork-p99/criu")
		}
	}
}

func BenchmarkFig10Porter(b *testing.B)          { fig10Bench(b, 1.0) }
func BenchmarkFig10cMemoryPressure(b *testing.B) { fig10Bench(b, 0.25) }

func BenchmarkCheckpoint(b *testing.B) {
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		ms, err := experiments.MeasureAll(p, benchSpecs(),
			[]experiments.Scenario{experiments.ScenCRIU, experiments.ScenMitosis, experiments.ScenCXLfork})
		if err != nil {
			b.Fatal(err)
		}
		r := experiments.CkptResult{Measurements: ms}
		criuX, cxlX := r.Summary()
		b.ReportMetric(criuX, "criu/mitosis-x")
		b.ReportMetric(cxlX, "cxlfork/mitosis-x")
	}
}

func BenchmarkFaultCosts(b *testing.B) {
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		fc, err := experiments.Faults(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fc.CoWCXL, "cow-cxl-us")
		b.ReportMetric(fc.AnonFault, "anon-us")
	}
}

// ---- Ablations (DESIGN.md §5) ----

// ablationEnv checkpoints Rnn (hundreds of VMAs, mid footprint) once.
func ablationEnv(b *testing.B) (*cluster.Cluster, *core.Mechanism, rfork.Image, faas.Spec) {
	b.Helper()
	p := experiments.ExpParams()
	spec, _ := faas.ByName("Rnn")
	c, err := experiments.NewEnv(p, spec)
	if err != nil {
		b.Fatal(err)
	}
	in, err := faas.NewInstance(c.Node(0), spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := in.ColdInit(); err != nil {
		b.Fatal(err)
	}
	// Shape A/D to steady state before checkpointing (§5).
	if _, err := in.Invoke(nil); err != nil {
		b.Fatal(err)
	}
	in.Task.MM.PT.ClearABits()
	in.Task.MM.PT.ClearDirtyBits()
	if err := in.Warmup(15, nil); err != nil {
		b.Fatal(err)
	}
	mech := core.New(c.Dev)
	img, err := mech.Checkpoint(in.Task, "ablation")
	if err != nil {
		b.Fatal(err)
	}
	return c, mech, img, spec
}

// restoreLatency measures one restore's virtual latency on node 1.
func restoreLatency(b *testing.B, c *cluster.Cluster, mech *core.Mechanism, img rfork.Image, opts rfork.Options) des.Time {
	b.Helper()
	t0 := c.Eng.Now()
	child := c.Node(1).NewTask("clone")
	if err := mech.Restore(child, img, opts); err != nil {
		b.Fatal(err)
	}
	lat := c.Eng.Now() - t0
	c.Node(1).Exit(child)
	return lat
}

func BenchmarkAblationLeafAttach(b *testing.B) {
	c, mech, img, _ := ablationEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attach := restoreLatency(b, c, mech, img, rfork.Options{NoDirtyPrefetch: true})
		naive := restoreLatency(b, c, mech, img, rfork.Options{NoDirtyPrefetch: true, NaivePTCopy: true})
		b.ReportMetric(attach.Millis(), "attach-ms")
		b.ReportMetric(naive.Millis(), "naive-copy-ms")
		b.ReportMetric(float64(naive)/float64(attach), "naive/attach-x")
	}
}

func BenchmarkAblationDirtyPrefetch(b *testing.B) {
	c, mech, img, spec := ablationEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// With prefetch: stores to parent-dirty pages are fault-free.
		run := func(opts rfork.Options) des.Time {
			t0 := c.Eng.Now()
			child := c.Node(1).NewTask("clone")
			if err := mech.Restore(child, img, opts); err != nil {
				b.Fatal(err)
			}
			in := faas.Adopt(child, spec)
			if _, err := in.Invoke(nil); err != nil {
				b.Fatal(err)
			}
			d := c.Eng.Now() - t0
			in.Exit()
			return d
		}
		with := run(rfork.Options{})
		without := run(rfork.Options{NoDirtyPrefetch: true})
		b.ReportMetric(with.Millis(), "prefetch-ms")
		b.ReportMetric(without.Millis(), "cow-only-ms")
	}
}

func BenchmarkAblationFileMappings(b *testing.B) {
	// CXLfork checkpoints clean private file pages; CRIU re-faults them.
	// Compare the clones' file-fault time on first invocation.
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		spec, _ := faas.ByName("Rnn")
		fm, err := experiments.MeasureFunction(p, spec,
			[]experiments.Scenario{experiments.ScenCXLfork, experiments.ScenCRIU})
		if err != nil {
			b.Fatal(err)
		}
		cxl := fm.ByScen[experiments.ScenCXLfork]
		criu := fm.ByScen[experiments.ScenCRIU]
		b.ReportMetric(float64(cxl.Faults.Count(1)+cxl.Faults.Count(2)), "cxlfork-file-faults")
		b.ReportMetric(float64(criu.Faults.Count(1)+criu.Faults.Count(2)), "criu-file-faults")
	}
}

func BenchmarkAblationSyncPrefetch(b *testing.B) {
	// §4.3's rejected design: synchronously prefetching A-bit pages at
	// restore trades restore latency for fewer faults.
	c, mech, img, _ := ablationEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lazy := restoreLatency(b, c, mech, img, rfork.Options{Policy: rfork.HybridTiering})
		sync := restoreLatency(b, c, mech, img, rfork.Options{Policy: rfork.HybridTiering, SyncHotPrefetch: true})
		b.ReportMetric(lazy.Millis(), "lazy-restore-ms")
		b.ReportMetric(sync.Millis(), "sync-restore-ms")
	}
}

func BenchmarkAblationABitRefresh(b *testing.B) {
	// Hybrid tiering with stale (cleared) A bits fetches nothing local;
	// with steady-state bits it fetches the hot set.
	c, mech, img, spec := ablationEnv(b)
	ck := img.(*core.Checkpoint)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := c.Node(1).NewTask("hot")
		if err := mech.Restore(child, img, rfork.Options{Policy: rfork.HybridTiering}); err != nil {
			b.Fatal(err)
		}
		in := faas.Adopt(child, spec)
		if _, err := in.Invoke(nil); err != nil {
			b.Fatal(err)
		}
		hotLocal := child.MM.ResidentLocalPages()
		in.Exit()

		cleared := ck.ClearABits()
		child2 := c.Node(1).NewTask("cold")
		if err := mech.Restore(child2, img, rfork.Options{Policy: rfork.HybridTiering}); err != nil {
			b.Fatal(err)
		}
		in2 := faas.Adopt(child2, spec)
		if _, err := in2.Invoke(nil); err != nil {
			b.Fatal(err)
		}
		coldLocal := child2.MM.ResidentLocalPages()
		in2.Exit()

		// Close the continuous-refresh loop (§4.3): an attached
		// (migrate-on-write) clone's page walks re-mark the hot set on
		// the shared checkpointed leaves for the next iteration.
		refresher := c.Node(0).NewTask("refresh")
		if err := mech.Restore(refresher, img, rfork.Options{NoDirtyPrefetch: true}); err != nil {
			b.Fatal(err)
		}
		in3 := faas.Adopt(refresher, spec)
		if _, err := in3.Invoke(nil); err != nil {
			b.Fatal(err)
		}
		in3.Exit()

		b.ReportMetric(float64(hotLocal), "hot-local-pages")
		b.ReportMetric(float64(coldLocal), "stale-local-pages")
		b.ReportMetric(float64(cleared), "cleared-a-bits")
	}
}

func BenchmarkAblationGhostContainers(b *testing.B) {
	// Ghost containers vs fresh container creation on the porter's
	// cold-start path.
	p := experiments.ExpParams()
	spec, _ := faas.ByName("Float")
	ms, err := experiments.MeasureAll(p, []faas.Spec{spec}, experiments.AllScenarios)
	if err != nil {
		b.Fatal(err)
	}
	profiles := experiments.BuildProfiles(ms)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := func(disable bool) des.Time {
			c := cluster.MustNew(p, 2)
			po := porter.New(c, porter.Config{
				Mechanism:         core.New(c.Dev),
				Profiles:          profiles,
				GhostsPerFunction: 4, // pool covers the whole burst
				DisableGhosts:     disable,
				Seed:              1,
			})
			if err := po.Setup([]faas.Spec{spec}); err != nil {
				b.Fatal(err)
			}
			// A burst of 8 simultaneous arrivals forces cold spawns.
			var reqs []azure.Request
			for j := 0; j < 8; j++ {
				reqs = append(reqs, azure.Request{At: 0, Function: "Float"})
			}
			res := po.Run(reqs)
			return res.Overall.P99()
		}
		with := run(false)
		without := run(true)
		b.ReportMetric(with.Millis(), "ghost-p99-ms")
		b.ReportMetric(without.Millis(), "no-ghost-p99-ms")
	}
}

// laneBench runs the lane sweep once per iteration and reports the
// per-page virtual costs at the given lane count. The sweep's results
// are pinned by goldenLanes and printed by cxlsim -exp lanes.
func laneBench(b *testing.B, lanes int) {
	p := experiments.ExpParams()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 1 << 30
	p.CheckpointAfter = 2
	for i := 0; i < b.N; i++ {
		r, err := experiments.LaneSweep(p, "Float", []int{lanes})
		if err != nil {
			b.Fatal(err)
		}
		pt := r.Points[0]
		b.ReportMetric(pt.CheckpointNsPerPage(), "ckpt-ns/page")
		b.ReportMetric(pt.RestoreNsPerPage(), "restore-ns/page")
		b.ReportMetric(float64(pt.DedupBytesSaved>>20), "dedup-saved-mb")
	}
}

func BenchmarkLaneCheckpoint1(b *testing.B) { laneBench(b, 1) }
func BenchmarkLaneCheckpoint2(b *testing.B) { laneBench(b, 2) }
func BenchmarkLaneCheckpoint4(b *testing.B) { laneBench(b, 4) }
func BenchmarkLaneCheckpoint8(b *testing.B) { laneBench(b, 8) }

func BenchmarkScaleDedup(b *testing.B) {
	// Extension experiment: cluster-wide deduplication vs clone count.
	p := experiments.ExpParams()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Scale(p, "Rnn", 4, []int{8})
		if err != nil {
			b.Fatal(err)
		}
		pt := r.Points[0]
		b.ReportMetric(float64(pt.CXLforkLocalMB), "cxlfork-local-mb")
		b.ReportMetric(float64(pt.CRIULocalMB), "criu-local-mb")
		b.ReportMetric(pt.RestoreMean.Millis(), "restore-ms")
	}
}

func BenchmarkWorkflowTransport(b *testing.B) {
	// §8 extension: by-value vs by-reference payload passing.
	p := experiments.ExpParams()
	mk := func() *cluster.Cluster { return cluster.MustNew(p, 2) }
	for i := 0; i < b.N; i++ {
		bv, br, err := workflow.Compare(mk, 4, 4096) // 16 MB payload
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bv.Latency.Millis(), "by-value-ms")
		b.ReportMetric(br.Latency.Millis(), "by-ref-ms")
	}
}
