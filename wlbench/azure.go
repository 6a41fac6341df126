package main

import (
	"fmt"
	"runtime"
	"time"

	"cxlfork/internal/experiments"
)

// azureJob is experiments.AzureBench's million-request replay, with the
// tracer, telemetry and x-ray enabled when observed is set. Its arrivals
// and the porter's service-time jitter both use AzureBench's seed,
// whatever the run's seed: the jitter seed alone moves the replay's cost
// by up to half (3.4 s at jitter seed 104, 4.9 s at 102, on one host),
// which would swamp any change to the simulator. Every replay thus
// simulates the same million requests, and every run checks them
// against the pins.
func azureJob(observed bool, id string) job {
	cfg := experiments.DefaultAzureBenchConfig()
	p := experiments.ExpParams()
	if observed {
		p.TraceEnabled, p.TelemetryEnabled, p.XRayEnabled = true, true, true
	}
	return job{
		id: id, p: p, nodes: cfg.Nodes, funcs: []string{"Float", "Json"},
		design: "CXLfork-MoW", budget: 12 << 30, seed: cfg.Seed, traceSeed: cfg.Seed,
		rps: float64(cfg.Requests) / cfg.Duration.Seconds(), duration: cfg.Duration,
	}
}

// azureReplay runs azure-1m, or azure-observed when observed is set.
func azureReplay(b *bench, observed bool) error {
	// A traced observed run replays the plain trace once first, for the
	// observers' cost per event. Any other run sets the replay up once,
	// outside the window, so that no timed job pays for a cold process.
	warm := azureJob(false, "warm-up")
	warm.setupOnly = b.rec == nil || !observed
	plain, err := runJob(nil, warm, 0)
	if err != nil {
		return err
	}
	if !warm.setupOnly {
		for _, p := range checkAzurePins(plain, b.pins, false) {
			b.wrong("plain replay: %s", p)
		}
	}

	var setups, replays, evRates, untraced []float64
	var results []*jobResult
	w := window{start: time.Now(), limit: b.window}
	for w.more() {
		runtime.GC() // every job starts from a collected heap
		t0 := time.Now()
		id := fmt.Sprintf("replay%d", len(w.jobs)+1)
		root := b.rec.begin("job", id, 0)
		r, err := runJob(b.rec, azureJob(observed, id), root)
		b.rec.end(root)
		if err != nil {
			return err
		}
		w.jobs = append(w.jobs, time.Since(t0).Seconds())
		b.attempted += int64(r.arrivals)
		b.failed += int64(r.arrivals - r.res.Completed)
		for _, p := range checkAzurePins(r, b.pins, observed) {
			b.wrong("%s: %s", id, p)
		}
		setups = append(setups, r.setup.Seconds())
		replays = append(replays, r.replay.Seconds())
		evRates = append(evRates, float64(r.events)/r.replay.Seconds())
		untraced = append(untraced, (r.setup + r.replay).Seconds())
		results = append(results, r)
	}
	wall := time.Since(w.start).Seconds()
	last := results[len(results)-1]

	b.e2eMetric("setup_s", median(setups), "s")
	b.e2eMetric("job_s", median(replays), "s")
	b.info("replays", len(replays), "count")
	b.info("setup_s_each", list(setups), "s")
	b.info("replay_s_each", list(replays), "s")
	b.info("replay_events_per_s", median(evRates), "1/s")
	b.info("wall_s", wall, "s")
	b.info("error_rate", float64(b.failed)/float64(b.attempted), "ratio")
	b.info("sim_p99_ms", float64(last.res.Overall.P99())/1e6, "ms")
	b.info("fingerprint", last.fingerprint, "hex")
	b.info("des_events", last.events, "count")

	if b.rec != nil {
		if err := serveProbe(b); err != nil {
			return err
		}
		reportJobLayers(b, results)
		// Observed time per event over the plain replay's on the same
		// trace; azure-1m runs no observers, so its ratio is 1.
		overhead := 1.0
		if observed {
			var perEvent []float64
			for _, r := range results {
				perEvent = append(perEvent, r.replay.Seconds()/float64(r.events))
			}
			overhead = median(perEvent) / (plain.replay.Seconds() / float64(plain.events))
		}
		b.layer("obs.overhead_x", overhead, "x")
		b.layer("bench.trace_overhead_x", sum(w.jobs)/sum(untraced), "x")
	}
	return nil
}
