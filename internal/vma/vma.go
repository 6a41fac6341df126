package vma

import (
	"fmt"
	"sort"

	"cxlfork/internal/pt"
)

// LeafCap is the number of VMAs one leaf node holds at most.
const LeafCap = 32

// Prot is a permission bitmask.
type Prot uint8

// Permission bits.
const (
	Read Prot = 1 << iota
	Write
	Exec
)

func (p Prot) String() string {
	b := []byte("---")
	if p&Read != 0 {
		b[0] = 'r'
	}
	if p&Write != 0 {
		b[1] = 'w'
	}
	if p&Exec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Kind classifies the backing of a VMA.
type Kind uint8

const (
	// Anon is anonymous private memory (heap, stacks, arenas).
	Anon Kind = iota
	// FilePrivate is a private file mapping (libraries, binaries).
	FilePrivate
)

func (k Kind) String() string {
	if k == FilePrivate {
		return "file"
	}
	return "anon"
}

// VMA is one contiguous mapping. VMAs are treated as immutable values;
// updates replace them (after breaking a protected leaf).
type VMA struct {
	// ID is unique within a tree lineage; clones and checkpoints keep
	// IDs stable so per-process state (e.g. lazy materialization) can
	// key on them.
	ID    int
	Start pt.VirtAddr
	End   pt.VirtAddr // exclusive
	Prot  Prot
	Kind  Kind
	// Path and FileOff locate the backing file for FilePrivate VMAs.
	// Root filesystems are identical across nodes (§4.1), so the path
	// alone re-resolves the file anywhere.
	Path    string
	FileOff int64
	// Name is a human label ("[heap]", "libpython3.11.so").
	Name string
}

// Len returns the mapping length in bytes.
func (v VMA) Len() int64 { return int64(v.End - v.Start) }

// Pages returns the mapping length in pages.
func (v VMA) Pages() int { return int(v.Len() >> pt.PageShift) }

// Contains reports whether va falls inside the mapping.
func (v VMA) Contains(va pt.VirtAddr) bool { return va >= v.Start && va < v.End }

func (v VMA) String() string {
	return fmt.Sprintf("%#x-%#x %s %s %s", uint64(v.Start), uint64(v.End), v.Prot, v.Kind, v.Name)
}

// Leaf holds a sorted run of non-overlapping VMAs.
type Leaf struct {
	VMAs []VMA

	// InCXL marks a leaf resident in a checkpoint arena.
	InCXL bool
	// Protected write-protects the leaf; updates must copy it locally.
	Protected bool
}

// Clone returns a local, unprotected deep copy.
func (l *Leaf) Clone() *Leaf {
	c := &Leaf{VMAs: make([]VMA, len(l.VMAs))}
	copy(c.VMAs, l.VMAs)
	return c
}

// start returns the first VMA's start (leaves are never empty).
func (l *Leaf) start() pt.VirtAddr { return l.VMAs[0].Start }

// Stats tracks structural events for cost accounting.
type Stats struct {
	LocalLeaves    int
	AttachedLeaves int
	LeafBreaks     int
}

// Tree is the per-process VMA tree.
type Tree struct {
	leaves []*Leaf // sorted by start address; the "upper levels"
	nextID int
	stats  Stats
}

// NewTree returns an empty tree.
func NewTree() *Tree { return &Tree{nextID: 1} }

// Stats returns structural counters.
func (t *Tree) Stats() Stats { return t.stats }

// Count returns the number of VMAs.
func (t *Tree) Count() int {
	n := 0
	for _, l := range t.leaves {
		n += len(l.VMAs)
	}
	return n
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return len(t.leaves) }

// Find returns the VMA containing va, or nil.
func (t *Tree) Find(va pt.VirtAddr) *VMA {
	li := t.findLeaf(va)
	if li < 0 {
		return nil
	}
	l := t.leaves[li]
	i := sort.Search(len(l.VMAs), func(i int) bool { return l.VMAs[i].End > va })
	if i < len(l.VMAs) && l.VMAs[i].Contains(va) {
		return &l.VMAs[i]
	}
	return nil
}

// findLeaf returns the index of the leaf that could contain va, or -1.
func (t *Tree) findLeaf(va pt.VirtAddr) int {
	i := sort.Search(len(t.leaves), func(i int) bool { return t.leaves[i].start() > va })
	return i - 1 // may be -1
}

// Insert adds a mapping and returns the assigned VMA (with ID). It
// returns an error on overlap with an existing mapping.
func (t *Tree) Insert(v VMA) (VMA, error) {
	if v.End <= v.Start {
		return VMA{}, fmt.Errorf("vma: empty range %#x-%#x", uint64(v.Start), uint64(v.End))
	}
	if ex := t.overlaps(v.Start, v.End); ex != nil {
		return VMA{}, fmt.Errorf("vma: %#x-%#x overlaps %v", uint64(v.Start), uint64(v.End), ex)
	}
	if v.ID == 0 {
		v.ID = t.nextID
		t.nextID++
	} else if v.ID >= t.nextID {
		t.nextID = v.ID + 1
	}

	if len(t.leaves) == 0 {
		t.leaves = []*Leaf{{VMAs: []VMA{v}}}
		t.stats.LocalLeaves++
		return v, nil
	}
	li := t.findLeaf(v.Start)
	if li < 0 {
		li = 0
	}
	l := t.breakLeaf(li)
	i := sort.Search(len(l.VMAs), func(i int) bool { return l.VMAs[i].Start > v.Start })
	l.VMAs = append(l.VMAs, VMA{})
	copy(l.VMAs[i+1:], l.VMAs[i:])
	l.VMAs[i] = v
	if len(l.VMAs) > LeafCap {
		t.splitLeaf(li)
	}
	return v, nil
}

// overlaps returns an existing VMA intersecting [start,end), or nil.
func (t *Tree) overlaps(start, end pt.VirtAddr) *VMA {
	for _, l := range t.leaves {
		for i := range l.VMAs {
			v := &l.VMAs[i]
			if v.Start < end && start < v.End {
				return v
			}
		}
	}
	return nil
}

// breakLeaf applies leaf copy-on-write if the leaf is protected, and
// returns the (now writable) leaf.
func (t *Tree) breakLeaf(li int) *Leaf {
	l := t.leaves[li]
	if !l.Protected {
		return l
	}
	local := l.Clone()
	t.leaves[li] = local
	if l.InCXL {
		t.stats.AttachedLeaves--
	}
	t.stats.LocalLeaves++
	t.stats.LeafBreaks++
	return local
}

func (t *Tree) splitLeaf(li int) {
	l := t.leaves[li]
	mid := len(l.VMAs) / 2
	right := &Leaf{VMAs: append([]VMA(nil), l.VMAs[mid:]...)}
	l.VMAs = l.VMAs[:mid]
	t.leaves = append(t.leaves, nil)
	copy(t.leaves[li+2:], t.leaves[li+1:])
	t.leaves[li+1] = right
	t.stats.LocalLeaves++
}

// AttachLeaf appends a checkpointed leaf to the tree. Leaves must be
// attached in ascending address order into an empty or
// ascending-compatible tree (restore builds the index front-to-back).
func (t *Tree) AttachLeaf(l *Leaf) error {
	if !l.Protected {
		return fmt.Errorf("vma: refusing to attach unprotected leaf")
	}
	if len(l.VMAs) == 0 {
		return fmt.Errorf("vma: empty leaf")
	}
	if n := len(t.leaves); n > 0 {
		last := t.leaves[n-1]
		if last.VMAs[len(last.VMAs)-1].End > l.start() {
			return fmt.Errorf("vma: leaf attach out of order")
		}
	}
	for i := range l.VMAs {
		if l.VMAs[i].ID >= t.nextID {
			t.nextID = l.VMAs[i].ID + 1
		}
	}
	t.leaves = append(t.leaves, l)
	t.stats.AttachedLeaves++
	return nil
}

// Walk visits every VMA in ascending address order. The callback must
// not mutate the tree.
func (t *Tree) Walk(fn func(v VMA)) {
	for _, l := range t.leaves {
		for _, v := range l.VMAs {
			fn(v)
		}
	}
}

// Validate checks structural invariants: sorted, non-overlapping,
// non-empty leaves, sorted leaf index. Tests and property checks call it.
func (t *Tree) Validate() error {
	var prevEnd pt.VirtAddr
	var prevStart pt.VirtAddr
	for li, l := range t.leaves {
		if len(l.VMAs) == 0 {
			return fmt.Errorf("vma: leaf %d empty", li)
		}
		if li > 0 && l.start() < prevStart {
			return fmt.Errorf("vma: leaf index out of order at %d", li)
		}
		prevStart = l.start()
		for _, v := range l.VMAs {
			if v.Start < prevEnd {
				return fmt.Errorf("vma: overlap/misorder at %v", v)
			}
			if v.End <= v.Start {
				return fmt.Errorf("vma: empty vma %v", v)
			}
			prevEnd = v.End
		}
	}
	return nil
}
