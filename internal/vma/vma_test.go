package vma

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cxlfork/internal/pt"
)

func mk(start, end uint64) VMA {
	return VMA{Start: pt.VirtAddr(start), End: pt.VirtAddr(end), Prot: Read, Kind: Anon}
}

func TestInsertFind(t *testing.T) {
	tr := NewTree()
	v, err := tr.Insert(mk(0x1000, 0x3000))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == 0 {
		t.Fatal("no ID assigned")
	}
	if got := tr.Find(0x1000); got == nil || got.ID != v.ID {
		t.Fatal("Find missed start")
	}
	if got := tr.Find(0x2fff); got == nil {
		t.Fatal("Find missed last byte")
	}
	if tr.Find(0x3000) != nil {
		t.Fatal("Find hit exclusive end")
	}
	if tr.Find(0x0) != nil {
		t.Fatal("Find hit below range")
	}
}

func TestOverlapRejected(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Insert(mk(0x1000, 0x3000)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]uint64{{0x0, 0x1001}, {0x2000, 0x2800}, {0x2fff, 0x5000}, {0x500, 0x5000}} {
		if _, err := tr.Insert(mk(bad[0], bad[1])); err == nil {
			t.Fatalf("overlap %#x-%#x accepted", bad[0], bad[1])
		}
	}
	// Adjacent is fine.
	if _, err := tr.Insert(mk(0x3000, 0x4000)); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRangeRejected(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Insert(mk(0x1000, 0x1000)); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestLeafSplit(t *testing.T) {
	tr := NewTree()
	for i := 0; i < LeafCap*3; i++ {
		if _, err := tr.Insert(mk(uint64(i)*0x2000, uint64(i)*0x2000+0x1000)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != LeafCap*3 {
		t.Fatalf("count = %d", tr.Count())
	}
	if tr.Leaves() < 3 {
		t.Fatalf("leaves = %d, expected splits", tr.Leaves())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachLeafAndBreak(t *testing.T) {
	tr := NewTree()
	leaf := &Leaf{InCXL: true, Protected: true, VMAs: []VMA{
		{ID: 1, Start: 0x1000, End: 0x2000, Prot: Read, Kind: Anon},
		{ID: 2, Start: 0x2000, End: 0x4000, Prot: Read | Write, Kind: Anon},
	}}
	if err := tr.AttachLeaf(leaf); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().AttachedLeaves != 1 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
	if got := tr.Find(0x3000); got == nil || got.ID != 2 {
		t.Fatal("find through attached leaf failed")
	}
	// Inserting into the attached leaf's range breaks it.
	if _, err := tr.Insert(mk(0x4000, 0x5000)); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.LeafBreaks != 1 || st.AttachedLeaves != 0 {
		t.Fatalf("stats after break = %+v", st)
	}
	// The checkpointed leaf is pristine.
	if len(leaf.VMAs) != 2 {
		t.Fatal("checkpointed leaf mutated")
	}
}

func TestAttachLeafOrdering(t *testing.T) {
	tr := NewTree()
	a := &Leaf{Protected: true, VMAs: []VMA{{ID: 1, Start: 0x10000, End: 0x20000}}}
	b := &Leaf{Protected: true, VMAs: []VMA{{ID: 2, Start: 0x1000, End: 0x2000}}}
	if err := tr.AttachLeaf(a); err != nil {
		t.Fatal(err)
	}
	if err := tr.AttachLeaf(b); err == nil {
		t.Fatal("out-of-order attach accepted")
	}
	if err := tr.AttachLeaf(&Leaf{Protected: true}); err == nil {
		t.Fatal("empty leaf accepted")
	}
	if err := tr.AttachLeaf(&Leaf{VMAs: []VMA{{ID: 3, Start: 0x30000, End: 0x40000}}}); err == nil {
		t.Fatal("unprotected leaf accepted")
	}
}

func TestIDsPreservedAcrossAttach(t *testing.T) {
	tr := NewTree()
	leaf := &Leaf{Protected: true, VMAs: []VMA{{ID: 41, Start: 0x1000, End: 0x2000}}}
	tr.AttachLeaf(leaf)
	// New inserts don't collide with attached IDs.
	v, _ := tr.Insert(mk(0x9000, 0xa000))
	if v.ID <= 41 {
		t.Fatalf("new ID %d collides with attached", v.ID)
	}
	if got := tr.Find(0x1000); got == nil || got.ID != 41 {
		t.Fatalf("attached VMA found as %+v, want ID 41", got)
	}
}

func TestWalkOrder(t *testing.T) {
	tr := NewTree()
	starts := []uint64{0x9000, 0x1000, 0x5000, 0x3000, 0x7000}
	for _, s := range starts {
		tr.Insert(mk(s, s+0x1000))
	}
	var prev pt.VirtAddr
	tr.Walk(func(v VMA) {
		if v.Start < prev {
			t.Fatalf("walk out of order at %v", v)
		}
		prev = v.Start
	})
}

// TestInsertProperty: random non-overlapping insertions keep the tree
// valid and findable.
func TestInsertProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		n := 100 + rng.Intn(100)
		// Disjoint slots, inserted in random order.
		perm := rng.Perm(n)
		for _, i := range perm {
			base := uint64(i) * 0x10000
			if _, err := tr.Insert(mk(base+0x1000, base+0x3000)); err != nil {
				return false
			}
		}
		if tr.Count() != n {
			return false
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			base := uint64(i) * 0x10000
			if tr.Find(pt.VirtAddr(base+0x2000)) == nil {
				return false
			}
			if tr.Find(pt.VirtAddr(base+0x4000)) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestMutationProperty: random interleavings of checkpointed-leaf
// attaches and inserts, each insert breaking the attached leaf it lands
// in, keep the tree valid and consistent with a reference list, and
// leave every checkpointed leaf as it was attached.
func TestMutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		var ref []VMA
		var attached []*Leaf
		// An attach maps the low half of the next 64 KiB slot, so
		// attaches stay ascending; an insert maps the free high half of
		// an earlier slot. Attach IDs step by 1000 so that the IDs
		// Insert hands out in between never collide with them.
		highFree := map[int]bool{}
		for op := 0; op < 100; op++ {
			slot := len(attached)
			if slot == 0 || rng.Intn(2) == 0 {
				base := uint64(slot) * 0x10000
				v := mk(base, base+0x8000)
				v.ID = (slot + 1) * 1000
				l := &Leaf{InCXL: true, Protected: true, VMAs: []VMA{v}}
				if tr.AttachLeaf(l) != nil {
					return false
				}
				attached = append(attached, l)
				ref = append(ref, v)
				highFree[slot] = true
			} else if s := rng.Intn(slot); highFree[s] {
				base := uint64(s)*0x10000 + 0x8000
				v, err := tr.Insert(mk(base, base+0x1000))
				if err != nil {
					return false
				}
				ref = append(ref, v)
				highFree[s] = false
			}
			st := tr.Stats()
			if tr.Validate() != nil || tr.Count() != len(ref) || st.AttachedLeaves+st.LeafBreaks != len(attached) {
				return false
			}
		}
		for _, v := range ref {
			if got := tr.Find(v.Start + pt.VirtAddr(v.Len()/2)); got == nil || *got != v {
				return false
			}
		}
		for i, l := range attached {
			if len(l.VMAs) != 1 || l.VMAs[0].ID != (i+1)*1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestVMAHelpers(t *testing.T) {
	v := VMA{Start: 0x1000, End: 0x5000, Prot: Read | Exec, Kind: FilePrivate, Name: "lib.so"}
	if v.Len() != 0x4000 || v.Pages() != 4 {
		t.Fatalf("len=%d pages=%d", v.Len(), v.Pages())
	}
	if v.Prot.String() != "r-x" {
		t.Fatalf("prot = %q", v.Prot.String())
	}
	if !v.Contains(0x1000) || v.Contains(0x5000) {
		t.Fatal("Contains boundary wrong")
	}
}
