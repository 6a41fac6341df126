package kernel

import (
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/params"
	"cxlfork/internal/pt"
	"cxlfork/internal/vma"
)

// TestFaultChargingMatchesClock verifies that all fault time recorded in
// MMStats equals the clock advance attributable to faults.
func TestFaultChargingMatchesClock(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	task.MM.Mmap(vma.VMA{Start: 0x10000, End: 0x30000, Prot: vma.Read | vma.Write, Kind: vma.Anon})

	// Pure fault workload: every access faults exactly once (first touch
	// of each page), plus TLB walks and one memory access each.
	before := o.Eng.Now()
	for i := 0; i < 32; i++ {
		if err := task.MM.Access(pt.VirtAddr(0x10000+i*0x1000), true); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := o.Eng.Now() - before
	st := task.MM.Stats
	if st.Faults.Time != 32*params.AnonFault {
		t.Fatalf("fault time %v, want %v", st.Faults.Time, 32*params.AnonFault)
	}
	if got := st.Faults.Time + st.AccessTime; got != elapsed {
		t.Fatalf("accounting gap: faults+access=%v, clock=%v", got, elapsed)
	}
}

// TestAnonFaultIntoAttachedLeafBreaksIt verifies that growing into a
// region whose leaf is checkpoint-attached performs leaf copy-on-write
// and charges the extra leaf-copy cost.
func TestAnonFaultIntoAttachedLeafBreaksIt(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	// Map an anon VMA over a leaf-aligned region and attach a protected
	// leaf with one checkpointed CXL entry.
	base := pt.VirtAddr(pt.LeafSpan * 8)
	task.MM.Mmap(vma.VMA{Start: base, End: base + pt.LeafSpan, Prot: vma.Read | vma.Write, Kind: vma.Anon})
	cxlFrame := o.Dev.Pool().MustAlloc()
	leaf := &pt.Leaf{InCXL: true, Protected: true}
	leaf.PTEs[0] = pt.PTE{Flags: pt.Present | pt.OnCXL | pt.CoW, PFN: int32(cxlFrame.PFN())}
	if err := task.MM.PT.AttachLeaf(base, leaf); err != nil {
		t.Fatal(err)
	}

	// Faulting a *different* page in the same leaf must break the leaf.
	before := o.Eng.Now()
	if err := task.MM.Access(base+0x1000, true); err != nil {
		t.Fatal(err)
	}
	if task.MM.PT.Stats().LeafBreaks != 1 {
		t.Fatal("anon fault did not break the attached leaf")
	}
	want := params.AnonFault + o.P.CXLReadPage // fault + leaf copy
	if got := o.Eng.Now() - before - 2*params.LLCHit; got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
	// The checkpointed entry survived the break into the local copy.
	e, _ := task.MM.PT.Lookup(base)
	if !e.Flags.Has(pt.OnCXL) || e.PFN != int32(cxlFrame.PFN()) {
		t.Fatal("checkpointed entry lost in leaf break")
	}
	if err := task.MM.PT.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTLBWalkChargedOncePerTranslation verifies the TLB model: the
// first touch pays a walk, the second does not.
func TestTLBWalkChargedOncePerTranslation(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	task.MM.Mmap(vma.VMA{Start: 0x10000, End: 0x11000, Prot: vma.Read | vma.Write, Kind: vma.Anon})
	task.MM.Access(0x10000, true) // fault + walk

	before := o.Eng.Now()
	task.MM.Access(0x10000, false) // TLB hit + LLC hit
	first := o.Eng.Now() - before
	if first != params.LLCHit {
		t.Fatalf("warm access = %v, want one LLC hit (%v)", first, params.LLCHit)
	}
	if o.TLB.Misses() == 0 || o.TLB.Hits() == 0 {
		t.Fatalf("TLB counters: hits=%d misses=%d", o.TLB.Hits(), o.TLB.Misses())
	}
}

// TestCXLReadLatency verifies that LLC misses on CXL-mapped pages pay
// the device round trip rather than local DRAM latency.
func TestCXLReadLatency(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	base := pt.VirtAddr(pt.LeafSpan)
	task.MM.Mmap(vma.VMA{Start: base, End: base + 0x1000, Prot: vma.Read, Kind: vma.Anon})
	f := o.Dev.Pool().MustAlloc()
	task.MM.MapCXL(base, int32(f.PFN()), pt.Accessed)

	before := o.Eng.Now()
	if err := task.MM.Access(base, false); err != nil {
		t.Fatal(err)
	}
	got := o.Eng.Now() - before
	want := 2*params.LLCHit + o.P.CXLLatency // walk + CXL miss
	if got != want {
		t.Fatalf("CXL read charged %v, want %v", got, want)
	}
	// Second access: cached.
	before = o.Eng.Now()
	task.MM.Access(base, false)
	if got := o.Eng.Now() - before; got != params.LLCHit {
		t.Fatalf("cached CXL read charged %v, want %v", got, params.LLCHit)
	}
}

// TestSharedFrameCacheHitAcrossProcesses checks the physically-indexed
// LLC: a fork child hits on lines its parent warmed (same frames).
func TestSharedFrameCacheHitAcrossProcesses(t *testing.T) {
	o := testNode(t)
	parent := o.NewTask("p")
	parent.MM.Mmap(vma.VMA{Start: 0x10000, End: 0x11000, Prot: vma.Read | vma.Write, Kind: vma.Anon})
	parent.MM.Access(0x10000, true)  // fault + install
	parent.MM.Access(0x10000, false) // warm the line

	child, err := o.Fork(parent, "c")
	if err != nil {
		t.Fatal(err)
	}
	before := o.Eng.Now()
	if err := child.MM.Access(0x10000, false); err != nil {
		t.Fatal(err)
	}
	got := o.Eng.Now() - before
	// Child pays its own TLB walk but hits the parent's cache line.
	if got != 2*params.LLCHit+params.LLCHit {
		t.Fatalf("child access = %v, want walk + LLC hit", got)
	}
}

// TestAccessTimeVsComputeSeparation double-checks that AccessRepeat and
// engine advances compose: a mixed sequence accounts exactly.
func TestAccessTimeVsComputeSeparation(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	t0 := o.Eng.Now()
	task.MM.AccessRepeat(5)
	o.Eng.Advance(123 * des.Microsecond)
	task.MM.AccessRepeat(3)
	want := 8*params.LLCHit + 123*des.Microsecond
	if got := o.Eng.Now() - t0; got != want {
		t.Fatalf("elapsed %v, want %v", got, want)
	}
	if task.MM.Stats.AccessTime != 8*params.LLCHit {
		t.Fatal("access time accounting wrong")
	}
}
