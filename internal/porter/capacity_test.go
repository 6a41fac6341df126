package porter_test

import (
	"testing"

	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
	"cxlfork/internal/rfork"
)

func TestParseEvictPolicy(t *testing.T) {
	cases := map[string]porter.EvictPolicy{
		"":            porter.EvictCostBenefit,
		"costbenefit": porter.EvictCostBenefit,
		"lru":         porter.EvictLRU,
		"largest":     porter.EvictLargest,
	}
	for s, want := range cases {
		got, err := porter.ParseEvictPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseEvictPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := porter.ParseEvictPolicy("random"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// bigSpec is a second function with a larger footprint than Tiny.
func bigSpec() faas.Spec {
	s := tinySpec()
	s.Name = "Big"
	s.FootprintBytes = 24 << 20
	s.InitTouchFrac = 0.5
	return s
}

// twoFnProfiles gives Tiny a huge cold-start penalty (expensive to
// lose) and Big a tiny one (cheap to lose), so cost-benefit and
// largest-first disagree about the right victim.
func twoFnProfiles(mech string) map[porter.ProfileKey]porter.Profile {
	tiny := porter.Profile{
		Restore: 2 * des.Millisecond, ColdExec: 15 * des.Millisecond,
		WarmExec: 10 * des.Millisecond, LocalPages: 256,
		ColdInit: 800 * des.Millisecond, ColdInitExec: 12 * des.Millisecond,
		FootprintPages: 2048,
	}
	big := porter.Profile{
		Restore: 2 * des.Millisecond, ColdExec: 15 * des.Millisecond,
		WarmExec: 10 * des.Millisecond, LocalPages: 512,
		ColdInit: 20 * des.Millisecond, ColdInitExec: 16 * des.Millisecond,
		FootprintPages: 6144,
	}
	out := map[porter.ProfileKey]porter.Profile{}
	for _, pol := range []rfork.Policy{rfork.MigrateOnWrite, rfork.MigrateOnAccess, rfork.HybridTiering} {
		out[porter.ProfileKey{Function: "Tiny", Mechanism: mech, Policy: pol}] = tiny
		out[porter.ProfileKey{Function: "Big", Mechanism: mech, Policy: pol}] = big
	}
	return out
}

// pressurePorter provisions Tiny and Big, then fills the device to the
// high watermark so the next arrival forces exactly one eviction
// (narrow watermark gap).
func pressurePorter(t *testing.T, policy string) (*porter.Porter, *cluster.Cluster) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 128 << 20
	p.EvictPolicy = policy
	p.CXLHighWatermark = 0.90
	p.CXLLowWatermark = 0.88
	c := cluster.MustNew(p, 2)
	po := porter.New(c, porter.Config{
		Mechanism: core.New(c.Dev),
		Profiles:  twoFnProfiles("CXLfork"),
		Seed:      1,
	})
	if err := po.Setup([]faas.Spec{tinySpec(), bigSpec()}); err != nil {
		t.Fatal(err)
	}
	tinyImg, ok1 := po.Checkpoint("Tiny")
	bigImg, ok2 := po.Checkpoint("Big")
	if !ok1 || !ok2 {
		t.Fatal("setup did not register both checkpoints")
	}
	if bigImg.CXLBytes() <= tinyImg.CXLBytes() {
		t.Fatalf("Big (%d) not larger than Tiny (%d)", bigImg.CXLBytes(), tinyImg.CXLBytes())
	}
	pool := c.Dev.Pool()
	for c.Dev.Utilization() < 0.91 {
		pool.MustAlloc()
	}
	return po, c
}

// TestEvictPolicyChoosesVictim checks the three policies rank victims
// differently: largest-first drops the big image, cost-benefit keeps
// the expensive-to-rebuild one, LRU drops the least recently restored.
func TestEvictPolicyChoosesVictim(t *testing.T) {
	t.Run("largest", func(t *testing.T) {
		po, _ := pressurePorter(t, "largest")
		res := po.Run(steadyTrace(1, 0))
		if res.EvictedCkpts != 1 {
			t.Fatalf("evictions = %d, want 1", res.EvictedCkpts)
		}
		if _, ok := po.Checkpoint("Big"); ok {
			t.Fatal("largest-first kept the big image")
		}
		if _, ok := po.Checkpoint("Tiny"); !ok {
			t.Fatal("largest-first dropped the small image")
		}
	})
	t.Run("costbenefit", func(t *testing.T) {
		po, _ := pressurePorter(t, "costbenefit")
		res := po.Run(steadyTrace(1, 0))
		if res.EvictedCkpts != 1 {
			t.Fatalf("evictions = %d, want 1", res.EvictedCkpts)
		}
		// Big's cold start is nearly free: it is the cheap victim even
		// though Tiny frees fewer bytes.
		if _, ok := po.Checkpoint("Big"); ok {
			t.Fatal("cost-benefit kept the cheap-to-rebuild image")
		}
		if _, ok := po.Checkpoint("Tiny"); !ok {
			t.Fatal("cost-benefit dropped the expensive-to-rebuild image")
		}
	})
	t.Run("lru", func(t *testing.T) {
		po, _ := pressurePorter(t, "lru")
		// Tiny restored more recently than Big.
		po.TouchCheckpoint("Big", 1*des.Second)
		po.TouchCheckpoint("Tiny", 2*des.Second)
		res := po.Run(steadyTrace(1, 0))
		if res.EvictedCkpts != 1 {
			t.Fatalf("evictions = %d, want 1", res.EvictedCkpts)
		}
		if _, ok := po.Checkpoint("Big"); ok {
			t.Fatal("LRU kept the older image")
		}
		if _, ok := po.Checkpoint("Tiny"); !ok {
			t.Fatal("LRU dropped the recently restored image")
		}
	})
}

// TestEvictedBytesMatchOccupancyDelta drives a full eviction cycle and
// checks the capacity counters report true device deltas.
func TestEvictedBytesMatchOccupancyDelta(t *testing.T) {
	po, c := pressurePorter(t, "costbenefit")
	before := c.Dev.UsedBytes()
	res := po.Run(steadyTrace(1, 0))
	freedByDevice := before - c.Dev.UsedBytes()
	// The run also allocates nothing persistent on the device besides
	// the eviction (the request is served from node DRAM), so the
	// occupancy delta is exactly the evicted bytes.
	if res.EvictedBytes != freedByDevice {
		t.Fatalf("EvictedBytes %d != device delta %d", res.EvictedBytes, freedByDevice)
	}
	if res.EvictedBytes <= 0 {
		t.Fatal("nothing evicted")
	}
	if res.DeferredBytes != 0 {
		t.Fatalf("DeferredBytes = %d with no pinned images", res.DeferredBytes)
	}
}

// TestEvictionDefersPinnedImage pins the only checkpoint (as a live
// clone reference would) and checks eviction frees nothing, defers the
// declared bytes, and never invalidates the image's frames.
func TestEvictionDefersPinnedImage(t *testing.T) {
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 24 << 20
	c := cluster.MustNew(p, 2)
	po := porter.New(c, porter.Config{
		Mechanism: core.New(c.Dev),
		Profiles:  profiles("CXLfork"),
		Seed:      1,
	})
	if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	img, _ := po.Checkpoint("Tiny")
	img.Retain() // simulate a live clone
	pool := c.Dev.Pool()
	for c.Dev.Utilization() < 0.92 {
		pool.MustAlloc()
	}
	used := c.Dev.UsedBytes()
	res := po.Run(steadyTrace(5, 100*des.Millisecond))
	if res.EvictedCkpts == 0 {
		t.Fatal("pinned image never evicted")
	}
	if res.EvictedBytes != 0 {
		t.Fatalf("EvictedBytes = %d for a pinned image", res.EvictedBytes)
	}
	if res.DeferredBytes == 0 {
		t.Fatal("pinned eviction not counted as deferred")
	}
	if got := c.Dev.UsedBytes(); got < used {
		t.Fatalf("device shrank (%d -> %d) while the image was pinned", used, got)
	}
	if img.Refs() != 1 {
		t.Fatalf("refs = %d after the porter released its reference", img.Refs())
	}
	// The last reference frees the image's exclusive bytes.
	predicted := used - c.Dev.UsedBytes() // growth during the run
	_ = predicted
	before := c.Dev.UsedBytes()
	img.Release()
	if c.Dev.UsedBytes() >= before {
		t.Fatal("final release freed nothing")
	}
}

// TestRecheckpointAfterEviction evicts Tiny's checkpoint under
// pressure, then releases the pressure and checks the porter
// re-publishes the checkpoint from its snapshot after CheckpointAfter
// further completions.
func TestRecheckpointAfterEviction(t *testing.T) {
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 24 << 20
	c := cluster.MustNew(p, 2)
	po := porter.New(c, porter.Config{
		Mechanism: core.New(c.Dev),
		Profiles:  profiles("CXLfork"),
		Seed:      1,
	})
	if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	pool := c.Dev.Pool()
	var filler []*memsim.Frame
	for c.Dev.Utilization() < 0.92 {
		filler = append(filler, pool.MustAlloc())
	}
	// Pressure vanishes half a second into the trace.
	c.Eng.At(c.Eng.Now()+500*des.Millisecond, func() {
		for _, f := range filler {
			pool.Put(f)
		}
	})
	res := po.Run(steadyTrace(40, 100*des.Millisecond))
	if res.EvictedCkpts == 0 {
		t.Fatal("no eviction under pressure")
	}
	if res.Recheckpoints == 0 {
		t.Fatal("checkpoint never re-published after pressure lifted")
	}
	if _, ok := po.Checkpoint("Tiny"); !ok {
		t.Fatal("no checkpoint published after re-publication")
	}
	if res.ScratchCold == 0 {
		t.Fatal("expected scratch cold starts while evicted")
	}
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
}

// TestAdmissionRefusedUnderSustainedPressure keeps the device hot for
// the whole trace: the re-checkpoint admission must refuse (the
// degradation ladder's middle rung) and the function must keep running
// on scratch cold starts.
func TestAdmissionRefusedUnderSustainedPressure(t *testing.T) {
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 24 << 20
	c := cluster.MustNew(p, 2)
	po := porter.New(c, porter.Config{
		Mechanism: core.New(c.Dev),
		Profiles:  profiles("CXLfork"),
		Seed:      1,
	})
	if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	pool := c.Dev.Pool()
	for c.Dev.Utilization() < 0.92 {
		pool.MustAlloc()
	}
	res := po.Run(steadyTrace(20, 100*des.Millisecond))
	if res.CkptRefused == 0 {
		t.Fatal("admission never refused under sustained pressure")
	}
	if res.Recheckpoints != 0 {
		t.Fatalf("re-published %d checkpoints with the device full", res.Recheckpoints)
	}
	if _, ok := po.Checkpoint("Tiny"); ok {
		t.Fatal("checkpoint present despite refusals")
	}
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20", res.Completed)
	}
}

// TestCapacityDeterminism replays the full evict/re-publish cycle twice
// from scratch and requires identical fingerprints.
func TestCapacityDeterminism(t *testing.T) {
	run := func() uint64 {
		p := params.Default()
		p.NodeDRAMBytes = 1 << 30
		p.CXLBytes = 24 << 20
		c := cluster.MustNew(p, 2)
		po := porter.New(c, porter.Config{
			Mechanism: core.New(c.Dev),
			Profiles:  profiles("CXLfork"),
			Seed:      7,
		})
		if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
			t.Fatal(err)
		}
		pool := c.Dev.Pool()
		var filler []*memsim.Frame
		for c.Dev.Utilization() < 0.92 {
			filler = append(filler, pool.MustAlloc())
		}
		c.Eng.At(c.Eng.Now()+500*des.Millisecond, func() {
			for _, f := range filler {
				pool.Put(f)
			}
		})
		return po.Run(steadyTrace(40, 100*des.Millisecond)).Fingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("capacity run not deterministic: %x vs %x", a, b)
	}
}
