package porter

import (
	"testing"

	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
	"cxlfork/internal/rfork"
)

// controllerPorter provisions fns, in order, on a nodes-wide cluster
// with the ladder profiles under cfg's tiering and memory settings.
func controllerPorter(t *testing.T, nodes int, cfg Config, fns ...string) (*Porter, *cluster.Cluster) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 1 << 30
	c := cluster.MustNew(p, nodes)
	cfg.Mechanism, cfg.Profiles, cfg.Seed = core.New(c.Dev), ladderProfiles(), 1
	po := New(c, cfg)
	specs := make([]faas.Spec, len(fns))
	for i, fn := range fns {
		specs[i] = ladderSpec(fn)
	}
	if err := po.Setup(specs); err != nil {
		t.Fatal(err)
	}
	return po, c
}

// budgetPages is a node budget of n pages, for Config.NodeBudgetBytes.
func budgetPages(n int) int64 { return int64(n) * int64(params.Default().PageSize) }

// TestDynamicTieringPromotesOverSLO replays a burst whose cold starts
// run far past the function's SLO. Dynamic tiering promotes the
// function from migrate-on-write to hybrid tiering once; a static
// policy, or tiering off, never does, though the latency EWMA crossed
// the SLO in every case.
func TestDynamicTieringPromotesOverSLO(t *testing.T) {
	mow := rfork.MigrateOnWrite
	cases := []struct {
		name   string
		cfg    Config
		promos int
		policy rfork.Policy
	}{
		{"dynamic", Config{DynamicTiering: true}, 1, rfork.HybridTiering},
		{"static MoW", Config{DynamicTiering: true, StaticPolicy: &mow}, 0, rfork.MigrateOnWrite},
		{"tiering off", Config{}, 0, rfork.MigrateOnWrite},
	}
	burst := make([]azure.Request, 8)
	for i := range burst {
		burst[i].Function = "A"
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			po, _ := controllerPorter(t, 2, tc.cfg, "A")
			st := po.byName["A"]
			if st.policy != rfork.MigrateOnWrite {
				t.Fatalf("policy before the replay = %v, want MoW", st.policy)
			}
			res := po.Run(burst)
			if res.Completed != 8 {
				t.Fatalf("completed %d of 8", res.Completed)
			}
			if st.lateEWM <= 1 {
				t.Fatalf("latency EWMA %.2f of the SLO never crossed it", st.lateEWM)
			}
			if res.PolicyPromotions != tc.promos || st.policy != tc.policy {
				t.Fatalf("promotions %d, policy %v; want %d, %v", res.PolicyPromotions, st.policy, tc.promos, tc.policy)
			}
		})
	}
}

// TestNoPromotionUnderMemoryPressure holds a function over its SLO and
// moves the mean node utilization across params.HighMemFraction: at or
// above it the function stays on migrate-on-write, below it promotes.
func TestNoPromotionUnderMemoryPressure(t *testing.T) {
	po, _ := controllerPorter(t, 2, Config{DynamicTiering: true, DisableGhosts: true, NodeBudgetBytes: budgetPages(1000)}, "A")
	st := po.byName["A"]
	st.lateEWM = 2
	at := int(params.HighMemFraction * 1000)
	for _, used := range [][2]int{{at, at}, {1000, 850}, {1000, at}} {
		po.nodes[0].usedPages, po.nodes[1].usedPages = used[0], used[1]
		po.maybePromote(st)
		if st.policy != rfork.MigrateOnWrite || po.res.PolicyPromotions != 0 {
			t.Fatalf("nodes at %v of 1000 pages: promoted to %v under memory pressure", used, st.policy)
		}
	}
	po.nodes[0].usedPages, po.nodes[1].usedPages = at, at-1
	po.maybePromote(st)
	if st.policy != rfork.HybridTiering || po.res.PolicyPromotions != 1 {
		t.Fatalf("mean utilization just under %.2f: policy %v after %d promotions, want hybrid after 1",
			params.HighMemFraction, st.policy, po.res.PolicyPromotions)
	}
}

// TestKeepAliveShortensUnderPressure replays two requests 11 s apart:
// past params.KeepAliveShort, well inside the default keep-alive. On a
// roomy node the second finds the first's instance warm. With the node
// above params.HighMemFraction when the first completes, the instance
// idles for only KeepAliveShort and the second request restores again.
func TestKeepAliveShortensUnderPressure(t *testing.T) {
	gap := params.KeepAliveShort + des.Second
	for _, tc := range []struct {
		name     string
		reserved int
		warm     int
	}{
		{"roomy", 0, 1},
		{"pressure", 480, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			po, _ := controllerPorter(t, 1, Config{NodeBudgetBytes: budgetPages(1000)}, "A")
			po.nodes[0].reservedPages = tc.reserved
			res := po.Run([]azure.Request{{Function: "A"}, {Function: "A", At: gap}})
			if res.Completed != 2 || res.WarmStarts != tc.warm || res.ColdForks != 2-tc.warm {
				t.Fatalf("completed %d, warm %d, cold forks %d; want 2, %d, %d",
					res.Completed, res.WarmStarts, res.ColdForks, tc.warm, 2-tc.warm)
			}
		})
	}
}

// TestEvictForTakesOldestIdleInstance fills a one-node budget with idle
// instances of B, then A, and sends a request for Tiny. Making room
// evicts B's instance, the one idle longest, though A comes first in
// function order; A's instance then serves a warm request.
func TestEvictForTakesOldestIdleInstance(t *testing.T) {
	// Without ghosts an instance holds 256 pages plus its 128-page
	// container, so two fit in the budget and a third does not.
	po, _ := controllerPorter(t, 1, Config{DisableGhosts: true, NodeBudgetBytes: budgetPages(1000)}, "A", "B", "Tiny")
	res := po.Run([]azure.Request{
		{Function: "B"}, {Function: "A", At: des.Second}, {Function: "Tiny", At: 2 * des.Second}, {Function: "A", At: 3 * des.Second},
	})
	if res.Completed != 4 || res.Evictions != 1 || res.WarmStarts != 1 || res.ColdForks != 3 {
		t.Fatalf("completed %d, evictions %d, warm %d, cold forks %d; want 4, 1, 1, 3",
			res.Completed, res.Evictions, res.WarmStarts, res.ColdForks)
	}
}

// TestQueueDrainsOldestFirstAcrossFunctions holds a one-instance node
// busy with A while Tiny and then B queue. When A's instance frees, the
// porter serves Tiny, the older request, though B comes first in
// function order; B follows once Tiny's instance idles. Each spawn
// evicts the idle instance before it.
func TestQueueDrainsOldestFirstAcrossFunctions(t *testing.T) {
	po, _ := controllerPorter(t, 1, Config{DisableGhosts: true, NodeBudgetBytes: budgetPages(500)}, "A", "B", "Tiny")
	tinyAt, bAt := 10*des.Millisecond, 20*des.Millisecond
	res := po.Run([]azure.Request{{Function: "A"}, {Function: "Tiny", At: tinyAt}, {Function: "B", At: bAt}})
	if res.Completed != 3 || res.Evictions != 2 {
		t.Fatalf("completed %d, evictions %d; want 3, 2", res.Completed, res.Evictions)
	}
	tinyDone := tinyAt + res.PerFunction["Tiny"].Max()
	bDone := bAt + res.PerFunction["B"].Max()
	aDone := res.PerFunction["A"].Max()
	if !(aDone < tinyDone && tinyDone < bDone) {
		t.Fatalf("completions A %v, Tiny %v, B %v; want A, then Tiny, then B", aDone, tinyDone, bDone)
	}
}
