package kernel

import (
	"errors"
	"testing"

	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/fsim"
	"cxlfork/internal/params"
	"cxlfork/internal/pt"
	"cxlfork/internal/vma"
)

// testNode builds a small single-node environment.
func testNode(t *testing.T) *OS {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 64 << 20
	p.CXLBytes = 64 << 20
	p.LLCBytes = 1 << 20
	eng := des.NewEngine()
	dev := cxl.NewDevice(p)
	fs := fsim.NewFS()
	fs.Create("/lib/libc.so", 1<<20) // 256 pages
	return NewOS("node0", p, eng, dev, fs, p.NodeDRAMBytes)
}

func TestNewTaskChargesCreate(t *testing.T) {
	o := testNode(t)
	before := o.Eng.Now()
	task := o.NewTask("t")
	if task.PID != 1 {
		t.Fatalf("pid = %d", task.PID)
	}
	if o.Eng.Now()-before != params.TaskCreate {
		t.Fatalf("charged %v, want %v", o.Eng.Now()-before, params.TaskCreate)
	}
	if o.Tasks() != 1 || o.Task(1) != task {
		t.Fatal("task registry broken")
	}
}

func TestAnonFaultAndAccess(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	_, err := task.MM.Mmap(vma.VMA{Start: 0x10000, End: 0x20000, Prot: vma.Read | vma.Write, Kind: vma.Anon})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.MM.Access(0x10000, false); err != nil {
		t.Fatal(err)
	}
	st := task.MM.Stats.Faults
	if st.Count(FaultAnon) != 1 {
		t.Fatalf("anon faults = %d", st.Count(FaultAnon))
	}
	// Second access: no fault, cache hit.
	if err := task.MM.Access(0x10000, false); err != nil {
		t.Fatal(err)
	}
	if task.MM.Stats.Faults.Count(FaultAnon) != 1 {
		t.Fatal("second access faulted")
	}
	if task.MM.Stats.LLCHits == 0 {
		t.Fatal("no cache hit recorded")
	}
	// The mapping is writable in place (anon private).
	if err := task.MM.Access(0x10000, true); err != nil {
		t.Fatal(err)
	}
	e, _ := task.MM.PT.Lookup(0x10000)
	if !e.Flags.Has(pt.Dirty) {
		t.Fatal("store did not set D")
	}
}

func TestSegfault(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	if err := task.MM.Access(0xdead000, false); !errors.Is(err, ErrSegfault) {
		t.Fatalf("err = %v", err)
	}
}

func TestProtectionViolation(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	task.MM.Mmap(vma.VMA{Start: 0x10000, End: 0x11000, Prot: vma.Read, Kind: vma.Anon})
	if err := task.MM.Access(0x10000, true); !errors.Is(err, ErrProtection) {
		t.Fatalf("err = %v", err)
	}
}

func TestFileFaultMajorThenMinor(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	task.MM.Mmap(vma.VMA{
		Start: 0x400000, End: 0x410000, Prot: vma.Read | vma.Exec,
		Kind: vma.FilePrivate, Path: "/lib/libc.so", Name: "libc",
	})
	if err := task.MM.Access(0x400000, false); err != nil {
		t.Fatal(err)
	}
	if task.MM.Stats.Faults.Count(FaultFileMajor) != 1 {
		t.Fatal("first file touch should be a major fault")
	}
	// Second process on the same node: page cache hit.
	t2 := o.NewTask("t2")
	t2.MM.Mmap(vma.VMA{
		Start: 0x400000, End: 0x410000, Prot: vma.Read | vma.Exec,
		Kind: vma.FilePrivate, Path: "/lib/libc.so", Name: "libc",
	})
	if err := t2.MM.Access(0x400000, false); err != nil {
		t.Fatal(err)
	}
	if t2.MM.Stats.Faults.Count(FaultFileMinor) != 1 {
		t.Fatal("second process should hit page cache")
	}
	// Both map the same physical frame: identical content tokens.
	e1, _ := task.MM.PT.Lookup(0x400000)
	e2, _ := t2.MM.PT.Lookup(0x400000)
	if e1.PFN != e2.PFN {
		t.Fatal("page-cache frame not shared")
	}
}

func TestWarmFile(t *testing.T) {
	o := testNode(t)
	if err := o.WarmFile("/lib/libc.so"); err != nil {
		t.Fatal(err)
	}
	task := o.NewTask("t")
	task.MM.Mmap(vma.VMA{
		Start: 0x400000, End: 0x500000, Prot: vma.Read,
		Kind: vma.FilePrivate, Path: "/lib/libc.so",
	})
	task.MM.Access(0x400000, false)
	if task.MM.Stats.Faults.Count(FaultFileMajor) != 0 {
		t.Fatal("warmed file still major-faulted")
	}
}

func TestForkCoWSharing(t *testing.T) {
	o := testNode(t)
	parent := o.NewTask("parent")
	parent.MM.Mmap(vma.VMA{Start: 0x10000, End: 0x14000, Prot: vma.Read | vma.Write, Kind: vma.Anon})
	for i := 0; i < 4; i++ {
		if err := parent.MM.Access(pt.VirtAddr(0x10000+i*0x1000), true); err != nil {
			t.Fatal(err)
		}
	}
	used := o.Mem.UsedPages()

	child, err := o.Fork(parent, "child")
	if err != nil {
		t.Fatal(err)
	}
	// Fork copies no pages.
	if o.Mem.UsedPages() != used {
		t.Fatalf("fork allocated %d pages", o.Mem.UsedPages()-used)
	}
	// Child reads the parent's data.
	pe, _ := parent.MM.PT.Lookup(0x10000)
	ce, _ := child.MM.PT.Lookup(0x10000)
	if pe.PFN != ce.PFN {
		t.Fatal("child does not share parent frame")
	}
	if pe.Flags.Has(pt.Writable) || ce.Flags.Has(pt.Writable) {
		t.Fatal("shared pages left writable")
	}

	// Child write triggers local CoW.
	if err := child.MM.Access(0x10000, true); err != nil {
		t.Fatal(err)
	}
	if child.MM.Stats.Faults.Count(FaultCoWLocal) != 1 {
		t.Fatal("no CoW fault on child store")
	}
	ce2, _ := child.MM.PT.Lookup(0x10000)
	if ce2.PFN == pe.PFN {
		t.Fatal("CoW did not copy")
	}
	// Parent's view unchanged.
	pe2, _ := parent.MM.PT.Lookup(0x10000)
	if pe2.PFN != pe.PFN {
		t.Fatal("parent remapped by child CoW")
	}
}

func TestForkDropsFilePTEs(t *testing.T) {
	o := testNode(t)
	o.WarmFile("/lib/libc.so")
	parent := o.NewTask("parent")
	parent.MM.Mmap(vma.VMA{
		Start: 0x400000, End: 0x404000, Prot: vma.Read,
		Kind: vma.FilePrivate, Path: "/lib/libc.so",
	})
	parent.MM.Access(0x400000, false)

	child, err := o.Fork(parent, "child")
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := child.MM.PT.Lookup(0x400000); e.Present() {
		t.Fatal("file PTE copied; LocalFork re-populates lazily")
	}
	// Child faults it back through the page cache.
	if err := child.MM.Access(0x400000, false); err != nil {
		t.Fatal(err)
	}
	if child.MM.Stats.Faults.Count(FaultFileMinor) != 1 {
		t.Fatal("child file fault not minor")
	}
}

func TestExitFreesMemory(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	task.MM.Mmap(vma.VMA{Start: 0x10000, End: 0x50000, Prot: vma.Read | vma.Write, Kind: vma.Anon})
	for i := 0; i < 64; i++ {
		task.MM.Access(pt.VirtAddr(0x10000+i*0x1000), true)
	}
	if o.Mem.UsedPages() != 64 {
		t.Fatalf("used = %d", o.Mem.UsedPages())
	}
	o.Exit(task)
	if o.Mem.UsedPages() != 0 {
		t.Fatalf("leak: %d pages after exit", o.Mem.UsedPages())
	}
	if o.Tasks() != 0 {
		t.Fatal("task still registered")
	}
	o.Exit(task) // idempotent
}

func TestExitSharedFramesSurvive(t *testing.T) {
	o := testNode(t)
	parent := o.NewTask("parent")
	parent.MM.Mmap(vma.VMA{Start: 0x10000, End: 0x11000, Prot: vma.Read | vma.Write, Kind: vma.Anon})
	parent.MM.Access(0x10000, true)
	child, _ := o.Fork(parent, "child")

	pe, _ := parent.MM.PT.Lookup(0x10000)
	o.Exit(parent)
	// The frame is still referenced by the child.
	if o.Mem.UsedPages() != 1 {
		t.Fatalf("used = %d after parent exit", o.Mem.UsedPages())
	}
	if err := child.MM.Access(0x10000, false); err != nil {
		t.Fatal(err)
	}
	ce, _ := child.MM.PT.Lookup(0x10000)
	if ce.PFN != pe.PFN {
		t.Fatal("child lost shared frame")
	}
	o.Exit(child)
	if o.Mem.UsedPages() != 0 {
		t.Fatal("leak after both exits")
	}
}

func TestCoWCostBreakdown(t *testing.T) {
	// §4.2.1: the CXL CoW fault costs FaultEntry + CXLReadPage +
	// TLBShootdown ≈ 2.5µs with defaults; an anon fault is < 1µs.
	p := params.Default()
	if got := p.CoWCXLFault(); got != 2500*des.Nanosecond {
		t.Fatalf("CoWCXLFault = %v, want 2.5µs", got)
	}
	if params.AnonFault >= 1000*des.Nanosecond {
		t.Fatalf("AnonFault = %v, want < 1µs", params.AnonFault)
	}
}

func TestFDTable(t *testing.T) {
	ft := NewFDTable()
	fd := ft.Open(FDFile, "/etc/conf", 0644)
	if fd.Num != 3 {
		t.Fatalf("first fd = %d, want 3 (stdio reserved)", fd.Num)
	}
	if _, err := ft.OpenAt(3, FDFile, "/x", 0, 0); err == nil {
		t.Fatal("OpenAt over live fd succeeded")
	}
	if _, err := ft.OpenAt(10, FDSocket, "sock:80", 0, 0); err != nil {
		t.Fatal(err)
	}
	next := ft.Open(FDFile, "/y", 0)
	if next.Num != 11 {
		t.Fatalf("next fd = %d, want 11", next.Num)
	}
	all := ft.All()
	if len(all) != 3 || all[0].Num != 3 || all[1].Num != 10 || all[2].Num != 11 {
		t.Fatalf("All = %v, want fds 3, 10, 11 in order", all)
	}
}

func TestAccessRepeatChargesHits(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	before := o.Eng.Now()
	task.MM.AccessRepeat(10)
	if o.Eng.Now()-before != 10*params.LLCHit {
		t.Fatal("AccessRepeat cost wrong")
	}
	if task.MM.Stats.LLCHits != 10 {
		t.Fatal("hits not recorded")
	}
}

func TestFaultStatsTotal(t *testing.T) {
	var s FaultStats
	s.Counts[FaultAnon] = 3
	s.Counts[FaultCoWCXL] = 2
	if s.Total() != 5 {
		t.Fatalf("Total = %d", s.Total())
	}
	if FaultCoWCXL.String() != "cow-cxl" {
		t.Fatalf("name = %q", FaultCoWCXL.String())
	}
}
