package porter

import (
	"math/rand"
	"testing"

	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
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
	spec := ladderSpec("Tiny")
	faas.RegisterFiles(c.FS, c.P, spec)
	if err := faas.WarmLibraries(c.Nodes[0], spec); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var declared int64
	for _, fn := range []string{"A", "B"} {
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
		img, err := mech.Checkpoint(in.Task, "cid-"+fn)
		if err != nil {
			t.Fatal(err)
		}
		in.Exit()
		declared += img.CXLBytes()
		publishAs(po, fn, img)
	}
	if c.Dev.Dedup.Hits.Value() == 0 {
		t.Fatal("twin checkpoints did not dedup — test premise broken")
	}
	var freed int64
	for {
		scores := make(map[string]float64)
		for _, st := range po.fns {
			if st.img != nil {
				scores[st.spec.Name] = po.evictScore(st)
			}
		}
		if len(scores) == 0 {
			break
		}
		before := c.Dev.UsedBytes()
		po.reclaim(1) // one eviction: every image frees at least its metadata
		delta := before - c.Dev.UsedBytes()
		var victims []string
		for fn := range scores {
			if _, ok := po.Checkpoint(fn); !ok {
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

// ladderPorter provisions specs on a two-node cluster whose device holds
// cxlBytes, under the given eviction policy.
func ladderPorter(t *testing.T, policy string, cxlBytes int64, specs ...string) (*Porter, *cluster.Cluster) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = cxlBytes
	p.EvictPolicy = policy
	c := cluster.MustNew(p, 2)
	po := New(c, Config{Mechanism: core.New(c.Dev), Profiles: ladderProfiles(), Seed: 1})
	var fs []faas.Spec
	for _, fn := range specs {
		fs = append(fs, ladderSpec(fn))
	}
	if err := po.Setup(fs); err != nil {
		t.Fatal(err)
	}
	return po, c
}

// TestEvictionTiesFallToFirstName provisions B before A and never
// restores either: under LRU they tie, and the tie goes to the first
// function name, not the first provisioned.
func TestEvictionTiesFallToFirstName(t *testing.T) {
	po, _ := ladderPorter(t, "lru", 1<<30, "B", "A")
	po.reclaim(1)
	if _, ok := po.Checkpoint("A"); ok {
		t.Fatal("A's checkpoint survived the tie")
	}
	if _, ok := po.Checkpoint("B"); !ok {
		t.Fatal("B's checkpoint was evicted on a tie with A")
	}
}

// TestSetupPublicationStartsAtZeroBase provisions A and B on a device
// too small for both checkpoints: B's checkpoint only fits once A's is
// evicted, which advances the cost-benefit aging clock. B's score base
// must still start at zero — Setup's publication order is the mix
// order, not recency — while a re-publication samples the clock.
func TestSetupPublicationStartsAtZeroBase(t *testing.T) {
	probe, _ := ladderPorter(t, "costbenefit", 1<<30, "A")
	img, _ := probe.Checkpoint("A")
	po, c := ladderPorter(t, "costbenefit", img.CXLBytes()*3/2/4096*4096, "A", "B")
	if _, ok := po.Checkpoint("A"); ok {
		t.Fatal("A's checkpoint was not evicted: test premise broken")
	}
	if _, ok := po.Checkpoint("B"); !ok {
		t.Fatal("B's checkpoint was not published: test premise broken")
	}
	if po.agingL <= 0 {
		t.Fatalf("aging clock = %v after an eviction, want > 0", po.agingL)
	}
	if got := po.byName["B"].scoreBase; got != 0 {
		t.Fatalf("B's score base = %v after Setup, want 0", got)
	}
	po.byName["B"].evict()
	a := po.byName["A"]
	po.republish(a, po.nodes[0], c.Eng.Now(), 0)
	if _, ok := po.Checkpoint("A"); !ok {
		t.Fatal("A's checkpoint was not re-published")
	}
	if a.scoreBase != po.agingL {
		t.Fatalf("A's score base = %v after re-publication, want the aging clock %v", a.scoreBase, po.agingL)
	}
}
