package porter_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/criu"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
	"cxlfork/internal/rfork"
)

// tinySpec is a fast function for scheduler tests.
func tinySpec() faas.Spec {
	return faas.Spec{
		Name: "Tiny", FootprintBytes: 8 << 20, LibBytes: 3 << 20,
		InitFrac: 0.6, ROFrac: 0.3, RWFrac: 0.1,
		InitComputeNs: 50 * des.Millisecond, WarmComputeNs: 10 * des.Millisecond,
		ROSweeps: 1, RepeatsPerPage: 1, InitTouchFrac: 0.05, ScratchFrac: 0.05,
		FDCount: 4, LibVMAs: 6,
	}
}

// profiles builds a hand-written profile table for Tiny.
func profiles(mech string) map[porter.ProfileKey]porter.Profile {
	pr := porter.Profile{
		Restore:        2 * des.Millisecond,
		ColdExec:       15 * des.Millisecond,
		WarmExec:       10 * des.Millisecond,
		LocalPages:     256, // 1 MB
		ColdInit:       200 * des.Millisecond,
		ColdInitExec:   12 * des.Millisecond,
		FootprintPages: 2048, // 8 MB
	}
	out := map[porter.ProfileKey]porter.Profile{}
	for _, pol := range []rfork.Policy{rfork.MigrateOnWrite, rfork.MigrateOnAccess, rfork.HybridTiering} {
		out[porter.ProfileKey{Function: "Tiny", Mechanism: mech, Policy: pol}] = pr
	}
	return out
}

func newPorter(t *testing.T, budget int64, mkMech func(c *cluster.Cluster) rfork.Mechanism, mechName string) (*porter.Porter, *cluster.Cluster) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 1 << 30
	c := cluster.MustNew(p, 2)
	cfg := porter.Config{
		Mechanism:       mkMech(c),
		Profiles:        profiles(mechName),
		NodeBudgetBytes: budget,
		Seed:            1,
	}
	po := porter.New(c, cfg)
	if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	return po, c
}

func cxlMech(c *cluster.Cluster) rfork.Mechanism { return core.New(c.Dev) }

func steadyTrace(n int, gap des.Time) []azure.Request {
	reqs := make([]azure.Request, n)
	for i := range reqs {
		reqs[i] = azure.Request{At: des.Time(i) * gap, Function: "Tiny"}
	}
	return reqs
}

func TestSetupRegistersCheckpoint(t *testing.T) {
	po, _ := newPorter(t, 1<<30, cxlMech, "CXLfork")
	if _, ok := po.Checkpoint("Tiny"); !ok {
		t.Fatal("Setup published no checkpoint")
	}
}

func TestAllRequestsComplete(t *testing.T) {
	po, _ := newPorter(t, 1<<30, cxlMech, "CXLfork")
	res := po.Run(steadyTrace(200, 20*des.Millisecond))
	if res.Completed != 200 {
		t.Fatalf("completed %d of 200", res.Completed)
	}
	if res.Overall.Count() != 200 {
		t.Fatal("latency samples missing")
	}
	if res.ScratchCold != 0 {
		t.Fatal("scratch cold start despite checkpoint")
	}
	if res.ColdForks == 0 {
		t.Fatal("no restores happened")
	}
}

func TestWarmReuseDominatesSteadyLoad(t *testing.T) {
	po, _ := newPorter(t, 1<<30, cxlMech, "CXLfork")
	// Sequential requests, each arriving after the previous finished.
	res := po.Run(steadyTrace(100, 50*des.Millisecond))
	if res.ColdForks > 3 {
		t.Fatalf("%d cold forks on steady sequential load", res.ColdForks)
	}
	if res.WarmStarts < 95 {
		t.Fatalf("warm starts = %d", res.WarmStarts)
	}
	// Warm latency ≈ warm exec time (no queueing).
	if res.Overall.P50() > 15*des.Millisecond {
		t.Fatalf("P50 = %v, want ≈10ms warm", res.Overall.P50())
	}
}

func TestBurstSpawnsInstances(t *testing.T) {
	po, _ := newPorter(t, 1<<30, cxlMech, "CXLfork")
	// 20 simultaneous arrivals need ~20 instances.
	res := po.Run(steadyTrace(20, 0))
	if res.ColdForks < 15 {
		t.Fatalf("cold forks = %d, want most of the burst", res.ColdForks)
	}
	if res.Completed != 20 {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestScratchColdWithoutCheckpoint(t *testing.T) {
	po, _ := newPorter(t, 1<<30, cxlMech, "CXLfork")
	po.Evict("Tiny")
	res := po.Run(steadyTrace(5, des.Second))
	if res.ScratchCold == 0 {
		t.Fatal("no scratch cold starts after reclaim")
	}
	if res.Completed != 5 {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestMemoryPressureEvicts(t *testing.T) {
	// Budget fits ~3 instances (1 MB each + ghosts): a 12-wide burst
	// must evict or queue, and still complete everything.
	po, _ := newPorter(t, 4<<20, cxlMech, "CXLfork")
	res := po.Run(steadyTrace(60, 5*des.Millisecond))
	if res.Completed != 60 {
		t.Fatalf("completed %d of 60", res.Completed)
	}
}

func TestCRIUIncompatibleWithGhosts(t *testing.T) {
	po, c := newPorter(t, 1<<30, func(c *cluster.Cluster) rfork.Mechanism {
		return criu.New(c.CXLFS)
	}, "CRIU-CXL")
	_ = c
	res := po.Run(steadyTrace(10, 0))
	if res.Completed != 10 {
		t.Fatalf("completed %d", res.Completed)
	}
	// Every CRIU spawn pays container creation: P99 ≥ 130ms.
	if res.Overall.P99() < 130*des.Millisecond {
		t.Fatalf("P99 = %v, CRIU should pay container creation", res.Overall.P99())
	}
}

func TestGhostsCutColdStartLatency(t *testing.T) {
	burst := steadyTrace(4, 0)
	poCXL, _ := newPorter(t, 1<<30, cxlMech, "CXLfork")
	resCXL := poCXL.Run(burst)
	poCRIU, _ := newPorter(t, 1<<30, func(c *cluster.Cluster) rfork.Mechanism {
		return criu.New(c.CXLFS)
	}, "CRIU-CXL")
	resCRIU := poCRIU.Run(burst)
	if resCXL.Overall.P99()*2 > resCRIU.Overall.P99() {
		t.Fatalf("ghost cold start %v not ≪ CRIU %v", resCXL.Overall.P99(), resCRIU.Overall.P99())
	}
}

// setupGhosts runs Setup for Tiny on a fresh two-node cluster with
// ghostsPerFn ghost containers per node, or none when disable is set,
// after taking fill frames of node 1's DRAM.
func setupGhosts(t *testing.T, ghostsPerFn int, disable bool, fill int) (*cluster.Cluster, error) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 64 << 20
	p.CXLBytes = 1 << 30
	c := cluster.MustNew(p, 2)
	for i := 0; i < fill; i++ {
		c.Nodes[1].Mem.MustAlloc()
	}
	po := porter.New(c, porter.Config{
		Mechanism:         core.New(c.Dev),
		Profiles:          profiles("CXLfork"),
		GhostsPerFunction: ghostsPerFn,
		DisableGhosts:     disable,
		Seed:              1,
	})
	return c, po.Setup([]faas.Spec{tinySpec()})
}

// TestSetupPinsGhostContainers: each ghost container Setup provisions
// charges one container creation and pins 512 KiB of its node's DRAM
// (128 frames of 4 KiB), measured against the same Setup without ghosts.
func TestSetupPinsGhostContainers(t *testing.T) {
	const ghosts = 3
	c, err := setupGhosts(t, ghosts, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := setupGhosts(t, ghosts, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Eng.Now()-ref.Eng.Now(), des.Time(len(c.Nodes)*ghosts)*params.ContainerCreate; got != want {
		t.Fatalf("ghosts charged %v of setup time, want %v", got, want)
	}
	for i := range c.Nodes {
		if got := c.Nodes[i].Mem.UsedPages() - ref.Nodes[i].Mem.UsedPages(); got != ghosts*128 {
			t.Fatalf("node %d: ghosts pin %d frames, want %d", i, got, ghosts*128)
		}
	}
}

// TestSetupGhostOutOfMemory: when a node has room for one and a half
// ghost containers, Setup fails with ErrOutOfMemory, the ghost that does
// not fit holds no frames, and only whole ghosts are charged.
func TestSetupGhostOutOfMemory(t *testing.T) {
	ref, err := setupGhosts(t, 2, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Without ghosts, node 1 ends Setup holding only Tiny's page cache.
	cached := ref.Nodes[1].Mem.UsedPages()
	fill := ref.Nodes[1].Mem.CapacityPages() - cached - 128*3/2
	c, err := setupGhosts(t, 2, false, fill)
	if !errors.Is(err, memsim.ErrOutOfMemory) {
		t.Fatalf("Setup err = %v, want ErrOutOfMemory", err)
	}
	if got, want := c.Nodes[1].Mem.UsedPages(), fill+cached+128; got != want {
		t.Fatalf("node 1 holds %d frames, want %d: one whole ghost and no part of the second", got, want)
	}
	// Node 0's two ghosts and node 1's first are the only ones charged.
	if got, want := c.Eng.Now()-ref.Eng.Now(), 3*params.ContainerCreate; got != want {
		t.Fatalf("ghosts charged %v of setup time, want %v", got, want)
	}
}

// TestCheckpointRecord checks each function's checkpoint record: Setup
// publishes one image per function and refuses a function listed twice
// before it checkpoints anything, eviction frees the image's device
// bytes, and a function never provisioned has no checkpoint.
func TestCheckpointRecord(t *testing.T) {
	po, c := newPorter(t, 1<<30, cxlMech, "CXLfork")
	img, ok := po.Checkpoint("Tiny")
	if !ok {
		t.Fatal("Setup published no checkpoint")
	}
	if got := c.Dev.UsedBytes(); got != img.CXLBytes() {
		t.Fatalf("device holds %d bytes, the published checkpoint is %d", got, img.CXLBytes())
	}
	if _, ok := po.Checkpoint("Json"); ok {
		t.Fatal("checkpoint reported for a function never provisioned")
	}
	po.Evict("Tiny")
	if _, ok := po.Checkpoint("Tiny"); ok {
		t.Fatal("checkpoint still published after eviction")
	}
	if got := c.Dev.UsedBytes(); got != 0 {
		t.Fatalf("eviction left %d bytes on the device", got)
	}

	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 256 << 20
	c = cluster.MustNew(p, 2)
	po = porter.New(c, porter.Config{Mechanism: core.New(c.Dev), Profiles: profiles("CXLfork"), Seed: 1})
	err := po.Setup([]faas.Spec{tinySpec(), tinySpec()})
	if err == nil || !strings.Contains(err.Error(), `"Tiny"`) {
		t.Fatalf("Setup err = %v, want one naming the repeated Tiny", err)
	}
	if _, ok := po.Checkpoint("Tiny"); ok || c.Dev.UsedBytes() != 0 || c.Eng.Now() != 0 {
		t.Fatalf("refused Setup provisioned: published %v, device %d bytes, clock %v", ok, c.Dev.UsedBytes(), c.Eng.Now())
	}
}

// TestRunPanicsNamingUnprovisionedFunction: a trace naming a function
// Setup did not provision is a programming error (the facade rejects
// such traces), so Run panics with the function's name before it
// replays anything.
func TestRunPanicsNamingUnprovisionedFunction(t *testing.T) {
	po, c := newPorter(t, 1<<30, cxlMech, "CXLfork")
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"Json"`) {
			t.Fatalf("panic %q, want one naming Json", msg)
		}
		if c.Eng.Executed() != 0 {
			t.Fatalf("%d events ran before the panic", c.Eng.Executed())
		}
	}()
	po.Run([]azure.Request{{At: 0, Function: "Tiny"}, {At: des.Millisecond, Function: "Json"}})
}

// TestWarmReplayAllocationsPerArrival bounds the replay's heap
// allocations on a warm-only trace of two functions. Requests are
// pooled records that serve as their own CPU jobs' actions, an idle
// instance is its own keep-alive action, and the latency recorders are
// sized before the replay, so only the handful of cold spawns at the
// start allocate.
func TestWarmReplayAllocationsPerArrival(t *testing.T) {
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 1 << 30
	c := cluster.MustNew(p, 2)
	specs := []faas.Spec{tinySpec(), tinySpec()}
	specs[1].Name = "Tiny2"
	profs := profiles("CXLfork")
	for k, v := range profiles("CXLfork") {
		k.Function = "Tiny2"
		profs[k] = v
	}
	po := porter.New(c, porter.Config{Mechanism: core.New(c.Dev), Profiles: profs, Seed: 1})
	if err := po.Setup(specs); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	trace := make([]azure.Request, n)
	for i := range trace {
		trace[i] = azure.Request{At: des.Time(i) * 3 * des.Millisecond, Function: specs[i%2].Name}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := po.Run(trace)
	runtime.ReadMemStats(&m1)
	if res.Completed != n || res.WarmStarts < n-20 {
		t.Fatalf("completed %d, warm %d of %d arrivals: not a warm-only replay", res.Completed, res.WarmStarts, n)
	}
	if per := float64(m1.Mallocs-m0.Mallocs) / n; per >= 0.1 {
		t.Fatalf("replay allocates %.3f objects per arrival, want < 0.1", per)
	}
}
