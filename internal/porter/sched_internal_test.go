package porter

import (
	"slices"
	"testing"

	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// TestGhostFallback consumes a ghost on a node with no room left: its
// replacement goes to the least-loaded surviving node with room, not to
// the full node and not to a busier one.
func TestGhostFallback(t *testing.T) {
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	c := cluster.MustNew(p, 3)
	po := New(c, Config{Mechanism: core.New(c.Dev), Profiles: ladderProfiles(), Seed: 1})
	if err := po.Setup([]faas.Spec{ladderSpec("A")}); err != nil {
		t.Fatal(err)
	}
	id := po.byName["A"].id
	full, busy, idle := po.nodes[0], po.nodes[1], po.nodes[2]
	for _, n := range po.nodes {
		n.ghosts[id]-- // every pool is one ghost short
	}
	full.usedPages = full.budgetPages
	busy.cpu.Exec(des.Second, func(des.Time) {})
	po.replenishGhosts(full, id)
	c.Eng.RunUntil(c.Eng.Now() + params.ContainerCreate)
	if got := []int{full.ghosts[id], busy.ghosts[id], idle.ghosts[id]}; !slices.Equal(got, []int{1, 1, 2}) {
		t.Fatalf("ghosts per node = %v, want [1 1 2]: the replacement belongs on the idle node", got)
	}
}
