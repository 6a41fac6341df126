package cxlfork

import (
	"testing"
	"time"
)

// TestCapacityConfigMapsToParams checks the Capacity block reaches the
// internal parameter set and rejects nothing silently: the zero value
// keeps defaults, and explicit fields override them.
func TestCapacityConfigMapsToParams(t *testing.T) {
	def := Config{}.params()
	if def.EvictPolicy != "costbenefit" || def.CXLHighWatermark != 0.90 {
		t.Fatalf("unexpected defaults: policy=%q high=%v", def.EvictPolicy, def.CXLHighWatermark)
	}

	cfg := smallConfig()
	cfg.Capacity = CapacityConfig{
		EvictPolicy:   "lru",
		HighWatermark: 0.80,
		LowWatermark:  0.60,
		ReclaimPeriod: 250 * time.Millisecond,
	}
	p := cfg.params()
	if p.EvictPolicy != "lru" {
		t.Fatalf("EvictPolicy = %q", p.EvictPolicy)
	}
	if p.CXLHighWatermark != 0.80 || p.CXLLowWatermark != 0.60 {
		t.Fatalf("watermarks = %v/%v", p.CXLHighWatermark, p.CXLLowWatermark)
	}
	if time.Duration(p.CXLReclaimPeriod) != 250*time.Millisecond {
		t.Fatalf("ReclaimPeriod = %v", time.Duration(p.CXLReclaimPeriod))
	}
	// The overridden config still boots.
	newSystem(t, cfg)
}

// TestCapacityStats checks the exclusive/shared occupancy breakdown:
// empty device reports zero; one checkpoint is fully exclusive; a dedup
// twin of the same function converts most data frames to shared; and
// the components always sum to the device's used bytes.
func TestCapacityStats(t *testing.T) {
	sys := newSystem(t, smallConfig())

	if st := sys.CapacityStats(); st.Checkpoints != 0 || st.UsedBytes != 0 {
		t.Fatalf("non-empty stats on fresh system: %+v", st)
	}

	fn := deployWarm(t, sys, "Float")
	ck1, err := sys.Checkpoint(fn, CXLfork, "cap-1")
	if err != nil {
		t.Fatal(err)
	}
	st1 := sys.CapacityStats()
	if st1.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1", st1.Checkpoints)
	}
	if st1.SharedBytes != 0 {
		t.Fatalf("single image reports %d shared bytes", st1.SharedBytes)
	}
	if st1.ExclusiveBytes == 0 || st1.MetaBytes == 0 {
		t.Fatalf("empty breakdown: %+v", st1)
	}
	if sum := st1.MetaBytes + st1.ExclusiveBytes + st1.SharedBytes; sum != st1.UsedBytes {
		t.Fatalf("breakdown sums to %d, used = %d", sum, st1.UsedBytes)
	}
	if u := st1.Utilization(); u <= 0 || u >= 1 {
		t.Fatalf("Utilization = %v", u)
	}

	// A second checkpoint of the same steady state dedups against the
	// first: its data frames become shared between the two images.
	ck2, err := sys.Checkpoint(fn, CXLfork, "cap-2")
	if err != nil {
		t.Fatal(err)
	}
	st2 := sys.CapacityStats()
	if st2.Checkpoints != 2 {
		t.Fatalf("Checkpoints = %d, want 2", st2.Checkpoints)
	}
	if st2.SharedBytes == 0 {
		t.Fatal("dedup twins report no shared bytes")
	}
	if st2.ExclusiveBytes >= st1.ExclusiveBytes {
		t.Fatalf("exclusive bytes did not shrink under sharing: %d -> %d",
			st1.ExclusiveBytes, st2.ExclusiveBytes)
	}
	if sum := st2.MetaBytes + st2.ExclusiveBytes + st2.SharedBytes; sum != st2.UsedBytes {
		t.Fatalf("breakdown sums to %d, used = %d", sum, st2.UsedBytes)
	}

	// Releasing the twin promotes the shared frames back to exclusive.
	ck2.Release()
	st3 := sys.CapacityStats()
	if st3.Checkpoints != 1 || st3.SharedBytes != 0 {
		t.Fatalf("after twin release: %+v", st3)
	}
	ck1.Release()
	if st := sys.CapacityStats(); st.UsedBytes != 0 {
		t.Fatalf("device not empty after last release: %+v", st)
	}
	fn.Exit()
}
