package porter

import (
	"fmt"
	"math/rand"
	"testing"

	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// TestLargestPolicyDedupAware checkpoints two instances of the same
// function, whose frames dedup into each other, and evicts them one at
// a time under the largest-first policy. Each victim must be scored by
// the device occupancy delta its eviction really produces — a shared
// frame counts only for its last owner — so the deltas sum to less than
// the declared footprints and the device ends empty.
func TestLargestPolicyDedupAware(t *testing.T) {
	p := params.Default()
	p.EvictPolicy = "largest"
	c := cluster.MustNew(p, 1)
	mech := core.New(c.Dev)
	po := New(c, Config{Mechanism: mech, Profiles: ladderProfiles(), Seed: 1})
	spec := faas.Spec{
		Name: "Tiny", FootprintBytes: 8 << 20, LibBytes: 3 << 20,
		InitFrac: 0.6, ROFrac: 0.3, RWFrac: 0.1,
		InitComputeNs: 50 * des.Millisecond, WarmComputeNs: 10 * des.Millisecond,
		ROSweeps: 1, RepeatsPerPage: 1, InitTouchFrac: 0.05, ScratchFrac: 0.05,
		FDCount: 4, LibVMAs: 6,
	}
	faas.RegisterFiles(c.FS, c.P, spec)
	if err := faas.WarmLibraries(c.Nodes[0], spec); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var declared int64
	for i := 0; i < 2; i++ {
		in, err := faas.NewInstance(c.Nodes[0], spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.ColdInit(); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Invoke(rng); err != nil {
			t.Fatal(err)
		}
		img, err := mech.Checkpoint(in.Task, fmt.Sprintf("cid-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		in.Exit()
		declared += img.CXLBytes()
		po.store.Put("t", fmt.Sprintf("fn%d", i), img)
	}
	if c.Dev.Dedup.Hits.Value() == 0 {
		t.Fatal("twin checkpoints did not dedup — test premise broken")
	}
	var freed int64
	for po.store.Len() > 0 {
		scores := make(map[string]float64)
		for _, e := range po.store.Entries() {
			scores[e.Function] = po.evictScore(e)
		}
		before := c.Dev.UsedBytes()
		po.reclaim(1) // one eviction: every image frees at least its metadata
		delta := before - c.Dev.UsedBytes()
		var victims []string
		for fn := range scores {
			if _, ok := po.store.Get("t", fn); !ok {
				victims = append(victims, fn)
			}
		}
		if len(victims) != 1 {
			t.Fatalf("reclaim pass evicted %v, want exactly one image", victims)
		}
		victim := scores[victims[0]]
		if victim != -float64(delta) {
			t.Fatalf("%s scored %v, but evicting it freed %d bytes", victims[0], victim, delta)
		}
		for fn, score := range scores {
			if score < victim {
				t.Fatalf("%s (score %v) outranked the evicted %s (score %v)", fn, score, victims[0], victim)
			}
		}
		freed += delta
	}
	if freed >= declared {
		t.Fatalf("freed %d not below declared %d despite dedup sharing", freed, declared)
	}
	if c.Dev.UsedBytes() != 0 {
		t.Fatalf("device not empty after full reclaim: %d", c.Dev.UsedBytes())
	}
}
