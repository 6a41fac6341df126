package cluster

import (
	"strings"
	"testing"

	"cxlfork/internal/params"
)

func small() params.Params {
	p := params.Default()
	p.NodeDRAMBytes = 16 << 20
	p.CXLBytes = 16 << 20
	return p
}

func TestNewCluster(t *testing.T) {
	c := MustNew(small(), 3)
	if len(c.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	// Nodes share the engine, device and root FS but have private DRAM.
	if c.Node(0).Eng != c.Node(2).Eng || c.Node(0).Dev != c.Node(1).Dev || c.Node(0).FS != c.Node(1).FS {
		t.Fatal("shared substrate not shared")
	}
	if c.Node(0).Mem == c.Node(1).Mem {
		t.Fatal("nodes share DRAM")
	}
	if c.Node(0).Name == c.Node(1).Name {
		t.Fatal("node names collide")
	}
}

func TestWarmAll(t *testing.T) {
	c := MustNew(small(), 2)
	c.FS.Create("/img/lib.so", 8*4096)
	if err := c.WarmAll("/img/lib.so"); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if n.PageCache.Pages() != 8 {
			t.Fatalf("%s page cache = %d", n.Name, n.PageCache.Pages())
		}
	}
	if err := c.WarmAll("/missing"); err == nil {
		t.Fatal("warming a missing file succeeded")
	}
}

func TestLocalUsedBytes(t *testing.T) {
	c := MustNew(small(), 2)
	c.Node(0).Mem.MustAlloc()
	c.Node(1).Mem.MustAlloc()
	c.Node(1).Mem.MustAlloc()
	if got := c.LocalUsedBytes(); got != 3*4096 {
		t.Fatalf("LocalUsedBytes = %d", got)
	}
}

func TestZeroNodesErrors(t *testing.T) {
	for _, n := range []int{0, -1} {
		if c, err := New(small(), n); err == nil || c != nil {
			t.Fatalf("New(%d) = %v, %v; want nil, error", n, c, err)
		}
	}
}

// TestUnknownPlacementErrors: a placement policy other than hash or
// locality is an error naming the value, not a silent hash ring.
func TestUnknownPlacementErrors(t *testing.T) {
	p := small()
	for _, pol := range []string{"", "hash", "locality"} {
		p.PlacementPolicy = pol
		if _, err := New(p, 1); err != nil {
			t.Fatalf("placement %q: %v", pol, err)
		}
	}
	p.PlacementPolicy = "bogus"
	c, err := New(p, 1)
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("placement bogus: New error %v, want one naming the value", err)
	}
	if c != nil {
		t.Fatal("placement bogus: New returned a cluster with its error")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	c := MustNew(small(), 2)
	if c.Trace != nil {
		t.Fatal("tracer allocated with TraceEnabled false")
	}
	if c.Trace.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	for _, n := range c.Nodes {
		if n.Trace != nil {
			t.Fatalf("%s has a tracer on an untraced cluster", n.Name)
		}
	}
}

func TestTraceSharedAcrossNodes(t *testing.T) {
	p := small()
	p.TraceEnabled = true
	c := MustNew(p, 3)
	if !c.Trace.Enabled() {
		t.Fatal("tracer not allocated with TraceEnabled true")
	}
	for _, n := range c.Nodes {
		if n.Trace != c.Trace {
			t.Fatalf("%s does not share the cluster tracer", n.Name)
		}
	}
}

func TestFaultPlanAlwaysPresent(t *testing.T) {
	c := MustNew(small(), 1)
	if c.Faults == nil {
		t.Fatal("fault plan is nil")
	}
	for i := 0; i < len(c.Nodes); i++ {
		if c.Faults.NodeDown(i) {
			t.Fatalf("node %d down on a fresh cluster", i)
		}
	}
}

func TestNodeAccessorMatchesSlice(t *testing.T) {
	c := MustNew(small(), 3)
	for i, n := range c.Nodes {
		if c.Node(i) != n {
			t.Fatalf("Node(%d) != Nodes[%d]", i, i)
		}
		if n.Index != i {
			t.Fatalf("node %d has Index %d", i, n.Index)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty cluster")
		}
	}()
	MustNew(small(), 0)
}
