package rforktest

import (
	"testing"

	"cxlfork/internal/cluster"
	"cxlfork/internal/kernel"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
	"cxlfork/internal/pt"
	"cxlfork/internal/vma"
)

// Layout of the test parent's address space.
const (
	LibBase  = pt.VirtAddr(0x7f0000000000)
	LibPages = 24

	HeapBase    = pt.VirtAddr(0x10000000)
	HeapROPages = 48 // written at init, then only read
	HeapRWPages = 16 // re-written every invocation

	LibPath = "/lib/libfn.so"
)

// HeapPages is the parent's total anonymous page count.
const HeapPages = HeapROPages + HeapRWPages

// NewCluster builds a two-node cluster sized for tests.
func NewCluster(t testing.TB) *cluster.Cluster {
	t.Helper()
	return NewClusterWith(t, func(*params.Params) {})
}

// NewTracedCluster is NewCluster with the virtual-time tracer enabled,
// so CheckInvariants additionally audits the recorded span stream.
func NewTracedCluster(t testing.TB) *cluster.Cluster {
	t.Helper()
	return NewClusterWith(t, func(p *params.Params) { p.TraceEnabled = true })
}

// NewClusterWith builds the test cluster after applying mutate to the
// default test parameters (lane counts, tracing, capacities).
func NewClusterWith(t testing.TB, mutate func(*params.Params)) *cluster.Cluster {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 256 << 20
	p.CXLBytes = 256 << 20
	p.LLCBytes = 2 << 20
	mutate(&p)
	c := cluster.MustNew(p, 2)
	c.FS.Create(LibPath, int64(LibPages*p.PageSize))
	if err := c.WarmAll(LibPath); err != nil {
		t.Fatal(err)
	}
	return c
}

// BuildParent creates and populates a parent process on node 0:
// a private file mapping (library), a read-only-after-init heap region,
// and a read-write heap region. The A/D bits are then shaped to mimic a
// steady-state function: cleared, one invocation replayed (reads on the
// RO region, writes on the RW region).
func BuildParent(t testing.TB, c *cluster.Cluster) *kernel.Task {
	t.Helper()
	return BuildParentOn(t, c, 0)
}

// BuildParentOn is BuildParent on an arbitrary cluster node, for
// scenarios that exercise cross-node failover.
func BuildParentOn(t testing.TB, c *cluster.Cluster, node int) *kernel.Task {
	t.Helper()
	o := c.Node(node)
	parent := o.NewTask("parent")

	mustMmap(t, parent, vma.VMA{
		Start: LibBase, End: LibBase + pt.VirtAddr(LibPages<<pt.PageShift),
		Prot: vma.Read | vma.Exec, Kind: vma.FilePrivate, Path: LibPath, Name: "libfn",
	})
	heapEnd := HeapBase + pt.VirtAddr(HeapPages<<pt.PageShift)
	mustMmap(t, parent, vma.VMA{
		Start: HeapBase, End: heapEnd,
		Prot: vma.Read | vma.Write, Kind: vma.Anon, Name: "[heap]",
	})

	parent.FDs.Open(kernel.FDFile, LibPath, 0o444)
	parent.FDs.Open(kernel.FDSocket, "sock:invoker", 0o600)

	// Init: touch the library, write the whole heap.
	for i := 0; i < LibPages; i++ {
		mustAccess(t, parent, LibBase+pt.VirtAddr(i<<pt.PageShift), false)
	}
	for i := 0; i < HeapPages; i++ {
		mustAccess(t, parent, HeapBase+pt.VirtAddr(i<<pt.PageShift), true)
	}

	// Shape A/D to steady state: clear, then replay one invocation.
	parent.MM.PT.ClearABits()
	parent.MM.PT.ClearDirtyBits()
	for i := 0; i < HeapROPages; i++ {
		mustAccess(t, parent, HeapBase+pt.VirtAddr(i<<pt.PageShift), false)
	}
	for i := HeapROPages; i < HeapPages; i++ {
		mustAccess(t, parent, HeapBase+pt.VirtAddr(i<<pt.PageShift), true)
	}
	parent.Invocations = 1
	return parent
}

func mustMmap(t testing.TB, task *kernel.Task, v vma.VMA) {
	t.Helper()
	if _, err := task.MM.Mmap(v); err != nil {
		t.Fatal(err)
	}
}

func mustAccess(t testing.TB, task *kernel.Task, va pt.VirtAddr, write bool) {
	t.Helper()
	if err := task.MM.Access(va, write); err != nil {
		t.Fatalf("access %#x write=%v: %v", uint64(va), write, err)
	}
}

// PageToken resolves the content token mapped at va, following the PTE
// to the backing frame in the right pool.
func PageToken(task *kernel.Task, va pt.VirtAddr) (uint64, bool) {
	e, ok := task.MM.PT.Lookup(va)
	if !ok || !e.Present() {
		return 0, false
	}
	var f *memsim.Frame
	if e.Flags.Has(pt.OnCXL) {
		f = task.OS.Dev.Pool().Frame(int(e.PFN))
	} else {
		f = task.OS.Mem.Frame(int(e.PFN))
	}
	return f.Data, true
}

// SnapshotTokens records the parent's content token for every present
// page, keyed by address.
func SnapshotTokens(task *kernel.Task) map[pt.VirtAddr]uint64 {
	snap := make(map[pt.VirtAddr]uint64)
	task.MM.PT.Walk(func(va pt.VirtAddr, l *pt.Leaf, i int) {
		tok, ok := PageToken(task, va)
		if ok {
			snap[va] = tok
		}
	})
	return snap
}

// VerifyCloneContent reads every snapshotted page through the clone
// (charging real access costs) and checks content equality with the
// parent snapshot. skip filters addresses the mechanism legitimately
// does not restore eagerly (none, for all three mechanisms — lazy paths
// must still produce identical content on access).
func VerifyCloneContent(t testing.TB, clone *kernel.Task, snap map[pt.VirtAddr]uint64) {
	t.Helper()
	for va, want := range snap {
		if err := clone.MM.Access(va, false); err != nil {
			t.Fatalf("clone access %#x: %v", uint64(va), err)
		}
		got, ok := PageToken(clone, va)
		if !ok {
			t.Fatalf("clone has no mapping at %#x after access", uint64(va))
		}
		if got != want {
			t.Fatalf("content mismatch at %#x: clone %d, parent %d", uint64(va), got, want)
		}
	}
}

// AddrOf returns the address of heap page i (helper for tests).
func AddrOf(base pt.VirtAddr, i int) pt.VirtAddr {
	return base + pt.VirtAddr(i<<pt.PageShift)
}
