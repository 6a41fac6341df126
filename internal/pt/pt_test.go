package pt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIndexGeometry(t *testing.T) {
	va := VirtAddr(0x7f1234567000)
	if va.PageBase() != va {
		t.Fatal("aligned address not its own page base")
	}
	if (va + 0xfff).PageBase() != va {
		t.Fatal("PageBase broken")
	}
	if va.LeafBase()%LeafSpan != 0 {
		t.Fatal("LeafBase not leaf-aligned")
	}
}

func TestSetLookup(t *testing.T) {
	tr := NewTree()
	va := VirtAddr(0x400000)
	if _, ok := tr.Lookup(va); ok {
		t.Fatal("empty tree returned a leaf")
	}
	// The root (level 4) pre-exists; levels 3 and 2 are allocated.
	res := tr.Set(va, PTE{Flags: Present | Writable, PFN: 7})
	if res.NewUppers != 2 || !res.NewLeaf {
		t.Fatalf("first set: uppers=%d newleaf=%v", res.NewUppers, res.NewLeaf)
	}
	e, ok := tr.Lookup(va)
	if !ok || !e.Present() || e.PFN != 7 {
		t.Fatalf("lookup = %+v ok=%v", e, ok)
	}
	// Neighbouring page in same leaf: no new structure.
	res = tr.Set(va+0x1000, PTE{Flags: Present, PFN: 8})
	if res.NewUppers != 0 || res.NewLeaf {
		t.Fatalf("second set allocated: %+v", res)
	}
}

// TestClear: setting a zero PTE clears a mapping and returns the old
// entry; clearing it again returns a non-present one.
func TestClear(t *testing.T) {
	tr := NewTree()
	va := VirtAddr(0x1000)
	tr.Set(va, PTE{Flags: Present, PFN: 3})
	res := tr.Set(va, PTE{})
	if !res.Old.Present() || res.Old.PFN != 3 {
		t.Fatalf("clear returned old=%+v", res.Old)
	}
	if e, _ := tr.Lookup(va); e.Present() {
		t.Fatal("entry still present after clear")
	}
	if res = tr.Set(va, PTE{}); res.Old.Present() {
		t.Fatal("second clear returned present old")
	}
}

func TestAttachLeaf(t *testing.T) {
	tr := NewTree()
	leaf := &Leaf{InCXL: true, Protected: true}
	leaf.PTEs[5] = PTE{Flags: Present | OnCXL | CoW, PFN: 42}
	base := VirtAddr(LeafSpan * 3)
	if err := tr.AttachLeaf(base, leaf); err != nil {
		t.Fatal(err)
	}
	e, ok := tr.Lookup(base + 5*0x1000)
	if !ok || e.PFN != 42 || !e.Flags.Has(OnCXL) {
		t.Fatalf("lookup through attached leaf = %+v ok=%v", e, ok)
	}
	if tr.Stats().AttachedLeaves != 1 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
}

func TestAttachLeafRejections(t *testing.T) {
	tr := NewTree()
	if err := tr.AttachLeaf(VirtAddr(0x1000), &Leaf{Protected: true}); err == nil {
		t.Fatal("unaligned attach accepted")
	}
	if err := tr.AttachLeaf(VirtAddr(0), &Leaf{}); err == nil {
		t.Fatal("unprotected attach accepted")
	}
	ok := &Leaf{Protected: true}
	if err := tr.AttachLeaf(VirtAddr(0), ok); err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachLeaf(VirtAddr(0), ok); err == nil {
		t.Fatal("double attach accepted")
	}
}

func TestLeafCoWOnProtectedUpdate(t *testing.T) {
	tr := NewTree()
	shared := &Leaf{InCXL: true, Protected: true}
	shared.PTEs[0] = PTE{Flags: Present | OnCXL | CoW, PFN: 1}
	shared.PTEs[1] = PTE{Flags: Present | OnCXL | CoW, PFN: 2}
	tr.AttachLeaf(0, shared)

	res := tr.Set(0, PTE{Flags: Present | Writable, PFN: 99})
	if !res.BrokeLeaf {
		t.Fatal("protected update did not break leaf")
	}
	// The shared leaf is untouched.
	if shared.PTEs[0].PFN != 1 {
		t.Fatal("checkpointed leaf mutated")
	}
	// The tree sees the new value and the sibling survived the copy.
	if e, _ := tr.Lookup(0); e.PFN != 99 {
		t.Fatalf("entry = %+v", e)
	}
	if e, _ := tr.Lookup(0x1000); e.PFN != 2 {
		t.Fatalf("sibling = %+v", e)
	}
	st := tr.Stats()
	if st.LeafBreaks != 1 || st.AttachedLeaves != 0 || st.LocalLeaves != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Further updates don't break again.
	res = tr.Set(0x1000, PTE{Flags: Present, PFN: 100})
	if res.BrokeLeaf {
		t.Fatal("second update broke again")
	}
}

func TestABitUpdateInPlaceOnProtectedLeaf(t *testing.T) {
	tr := NewTree()
	shared := &Leaf{InCXL: true, Protected: true}
	shared.PTEs[0] = PTE{Flags: Present | OnCXL | CoW, PFN: 1}
	tr.AttachLeaf(0, shared)

	if !tr.MarkAccessed(0) {
		t.Fatal("MarkAccessed reported no change")
	}
	// The hardware A-bit update lands on the shared checkpointed leaf.
	if !shared.PTEs[0].Flags.Has(Accessed) {
		t.Fatal("A bit not set in place on protected leaf")
	}
	if tr.Stats().LeafBreaks != 0 {
		t.Fatal("A-bit update broke the leaf")
	}
	// Second access: already set.
	if tr.MarkAccessed(0) {
		t.Fatal("MarkAccessed set twice")
	}
}

func TestClearABits(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 10; i++ {
		tr.Set(VirtAddr(i*0x1000), PTE{Flags: Present | Accessed, PFN: int32(i)})
	}
	if n := tr.ClearABits(); n != 10 {
		t.Fatalf("cleared %d, want 10", n)
	}
	if n := tr.ClearABits(); n != 0 {
		t.Fatalf("second clear = %d", n)
	}
}

func TestMarkDirtyPanicsOnReadOnly(t *testing.T) {
	tr := NewTree()
	tr.Set(0, PTE{Flags: Present | CoW, PFN: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on MarkDirty through read-only PTE")
		}
	}()
	tr.MarkDirty(0)
}

func TestSetUserHot(t *testing.T) {
	tr := NewTree()
	tr.Set(0, PTE{Flags: Present, PFN: 1})
	if !tr.SetUserHot(0) {
		t.Fatal("SetUserHot failed on present entry")
	}
	if e, _ := tr.Lookup(0); !e.Flags.Has(UserHot) {
		t.Fatal("UserHot not set")
	}
	if tr.SetUserHot(0x1000) {
		t.Fatal("SetUserHot succeeded on absent entry")
	}
}

func TestWalkOrdering(t *testing.T) {
	tr := NewTree()
	addrs := []VirtAddr{0x7f0000000000, 0x1000, 0x400000, 0x7fffff000000, 0x2000}
	for i, va := range addrs {
		tr.Set(va, PTE{Flags: Present, PFN: int32(i)})
	}
	var seen []VirtAddr
	tr.Walk(func(va VirtAddr, _ *Leaf, _ int) { seen = append(seen, va) })
	if len(seen) != len(addrs) {
		t.Fatalf("walk visited %d, want %d", len(seen), len(addrs))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("walk out of order: %v", seen)
		}
	}
}

func TestCountPresent(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 100; i++ {
		tr.Set(VirtAddr(i)<<PageShift, PTE{Flags: Present, PFN: int32(i)})
	}
	tr.Set(0, PTE{})
	if got := tr.CountPresent(); got != 99 {
		t.Fatalf("CountPresent = %d", got)
	}
}

// TestSetLookupProperty: whatever is Set at distinct addresses is
// returned verbatim by Lookup, independent of insertion order.
func TestSetLookupProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		want := make(map[VirtAddr]PTE)
		for i := 0; i < 200; i++ {
			va := VirtAddr(rng.Uint64() & 0x7fffffffffff).PageBase()
			pte := PTE{Flags: Present | Flags(rng.Intn(4))<<1, PFN: int32(rng.Intn(1 << 20))}
			tr.Set(va, pte)
			want[va] = pte
		}
		for va, pte := range want {
			got, ok := tr.Lookup(va)
			if !ok || got != pte {
				return false
			}
		}
		return tr.CountPresent() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkLeaves(t *testing.T) {
	tr := NewTree()
	tr.Set(0, PTE{Flags: Present, PFN: 1})
	tr.Set(VirtAddr(LeafSpan*5), PTE{Flags: Present, PFN: 2})
	var bases []VirtAddr
	tr.WalkLeaves(func(base VirtAddr, _ *Leaf) { bases = append(bases, base) })
	if len(bases) != 2 || bases[0] != 0 || bases[1] != VirtAddr(LeafSpan*5) {
		t.Fatalf("leaf bases = %v", bases)
	}
}

func TestLeafClone(t *testing.T) {
	l := &Leaf{InCXL: true, Protected: true}
	l.PTEs[3] = PTE{Flags: Present, PFN: 9}
	c := l.Clone()
	if c.InCXL || c.Protected {
		t.Fatal("clone inherited residency flags")
	}
	if c.PTEs[3].PFN != 9 {
		t.Fatal("clone lost entries")
	}
	c.PTEs[3].PFN = 10
	if l.PTEs[3].PFN != 9 {
		t.Fatal("clone aliases original")
	}
}

func TestLeafPresent(t *testing.T) {
	l := &Leaf{}
	l.PTEs[0] = PTE{Flags: Present}
	l.PTEs[511] = PTE{Flags: Present}
	if got := l.Present(); got != 2 {
		t.Fatalf("Present = %d", got)
	}
}

func TestValidateProtectedLeafInvariant(t *testing.T) {
	tr := NewTree()
	good := &Leaf{InCXL: true, Protected: true}
	good.PTEs[0] = PTE{Flags: Present | OnCXL | CoW, PFN: 1}
	if err := tr.AttachLeaf(0, good); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	// Corrupt the checkpointed leaf with a local frame reference.
	good.PTEs[1] = PTE{Flags: Present, PFN: 2}
	if err := tr.Validate(); err == nil {
		t.Fatal("local frame in protected leaf accepted")
	}
	good.PTEs[1] = PTE{Flags: Present | OnCXL | Writable, PFN: 2}
	if err := tr.Validate(); err == nil {
		t.Fatal("writable entry in protected leaf accepted")
	}
}
