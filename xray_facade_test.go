package cxlfork

import (
	"strings"
	"testing"
	"time"
)

// xrayWorkload is a small replay that still exercises every porter
// request class (warm starts, fork restores, scratch colds).
func xrayWorkload() Workload {
	return Workload{
		RPS:       40,
		Duration:  3 * time.Second,
		Functions: []string{"Json", "Cnn"},
		KeepAlive: 100 * time.Millisecond,
	}
}

// TestRunWorkloadXRayObservational pins the facade-level neutrality
// contract: Config.XRay attaches a blame report to the run without
// changing the simulated results, so the report fingerprint matches a
// plain run — and a second attributed run renders the report
// byte-identically.
func TestRunWorkloadXRayObservational(t *testing.T) {
	wl := xrayWorkload()
	plain, err := RunWorkload(smallConfig(), wl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.XRay != nil {
		t.Fatal("XRay report present without Config.XRay")
	}

	cfg := smallConfig()
	cfg.XRay = true
	a, err := RunWorkload(cfg, wl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != plain.Fingerprint {
		t.Fatalf("attribution perturbed the run: %s != %s", a.Fingerprint, plain.Fingerprint)
	}
	if a.XRay == nil || a.XRay.Requests == 0 {
		t.Fatalf("empty XRay report: %+v", a.XRay)
	}
	b, err := RunWorkload(cfg, wl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.XRay.Text() != b.XRay.Text() || a.XRay.Fingerprint() != b.XRay.Fingerprint() {
		t.Fatal("attributed reruns rendered different reports")
	}
	// Porter-fed attribution decomposes exactly: no residual anywhere.
	for _, cb := range a.XRay.Classes {
		if cb.ResidualNS != 0 {
			t.Fatalf("class %s carries residual %d", cb.Class, cb.ResidualNS)
		}
	}
}

// TestRunWorkloadSinkFailureKeepsFingerprint is the end-to-end pin for
// the telemetry sink hardening: a panicking OnSample consumer loses its
// stream but must not change what was simulated.
func TestRunWorkloadSinkFailureKeepsFingerprint(t *testing.T) {
	wl := xrayWorkload()
	plain, err := RunWorkload(smallConfig(), wl, nil)
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	broken, err := RunWorkload(smallConfig(), wl, &RunOptions{
		OnSample: func(Tick) {
			ticks++
			panic("broken sink")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 1 {
		t.Fatalf("panicking sink called %d times, want 1 (uninstalled after first panic)", ticks)
	}
	if broken.Fingerprint != plain.Fingerprint {
		t.Fatalf("sink panic perturbed the run: %s != %s", broken.Fingerprint, plain.Fingerprint)
	}
}

// TestSystemXRayReport covers the ops-facade path: attribution over
// trace spans needs both switches on, and then classifies the manual
// checkpoint/restore operations.
func TestSystemXRayReport(t *testing.T) {
	sys := NewSystem(smallConfig())
	if sys.XRayEnabled() {
		t.Fatal("XRay enabled by default")
	}
	if _, err := sys.XRayReport(); err == nil || !strings.Contains(err.Error(), "Config.XRay") {
		t.Fatalf("disabled XRayReport error = %v", err)
	}

	cfg := smallConfig()
	cfg.XRay = true
	sys = NewSystem(cfg)
	if !sys.XRayEnabled() {
		t.Fatal("XRay not enabled")
	}
	if _, err := sys.XRayReport(); err == nil || !strings.Contains(err.Error(), "Config.Trace") {
		t.Fatalf("untraced XRayReport error = %v", err)
	}

	cfg.Trace = true
	sys = NewSystem(cfg)
	fn := deployWarm(t, sys, "Json")
	ck, err := sys.Checkpoint(fn, CXLfork, "xr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Restore(1, ck, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := sys.XRayReport()
	if err != nil {
		t.Fatal(err)
	}
	if r.Class("op/checkpoint") == nil || r.Class("op/restore") == nil {
		t.Fatalf("span-derived classes missing:\n%s", r.Text())
	}
}

// goldenSystemXRay pins System.XRayReport over a traced facade run.
// Report.Fingerprint hashes the rendered text, so it covers every
// table and exemplar the report prints.
const goldenSystemXRay = 0xcb5284f1ec589642

// TestSystemXRayReportPinned pins the span-derived report over a run
// that records both op spans (a manual checkpoint and restore) and
// porter spans (an autoscaler replay on the same system).
func TestSystemXRayReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscaler calibration is slow")
	}
	cfg := smallConfig()
	cfg.Trace, cfg.XRay = true, true
	sys := NewSystem(cfg)
	fn := deployWarm(t, sys, "Json")
	ck, err := sys.Checkpoint(fn, CXLfork, "xr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Restore(1, ck, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunAutoscaler(AutoscalerConfig{
		Mechanism: CXLfork,
		Functions: []string{"Json"},
		RPS:       40,
		Duration:  2 * time.Second,
		Seed:      3,
	}); err != nil {
		t.Fatal(err)
	}
	r, err := sys.XRayReport()
	if err != nil {
		t.Fatal(err)
	}
	if r.Class("porter/warm-start") == nil || r.Class("op/checkpoint") == nil {
		t.Fatalf("op or porter classes missing:\n%s", r.Text())
	}
	if got := r.Fingerprint(); got != goldenSystemXRay {
		t.Fatalf("report fingerprint %#x, golden %#x", got, uint64(goldenSystemXRay))
	}
}
