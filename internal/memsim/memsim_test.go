package memsim

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPoolGeometry(t *testing.T) {
	p := NewPool("test", Local, 1<<20, 4096)
	if got := p.CapacityPages(); got != 256 {
		t.Fatalf("CapacityPages = %d, want 256", got)
	}
	if p.UsedPages() != 0 || p.FreePages() != 256 {
		t.Fatalf("fresh pool used=%d free=%d", p.UsedPages(), p.FreePages())
	}
}

func TestAllocFree(t *testing.T) {
	p := NewPool("test", Local, 16*4096, 4096)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if f.Refs() != 1 || f.Data != 0 {
		t.Fatalf("fresh frame refs=%d data=%d", f.Refs(), f.Data)
	}
	if p.UsedPages() != 1 {
		t.Fatalf("used = %d", p.UsedPages())
	}
	p.Put(f)
	if p.UsedPages() != 0 {
		t.Fatalf("used after free = %d", p.UsedPages())
	}
}

func TestDeterministicPFNs(t *testing.T) {
	p := NewPool("test", Local, 8*4096, 4096)
	for i := 0; i < 8; i++ {
		f := p.MustAlloc()
		if f.PFN() != i {
			t.Fatalf("alloc %d got pfn %d", i, f.PFN())
		}
	}
}

func TestExhaustion(t *testing.T) {
	p := NewPool("test", Local, 2*4096, 4096)
	p.MustAlloc()
	p.MustAlloc()
	if _, err := p.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestRefcounting(t *testing.T) {
	p := NewPool("test", Local, 4*4096, 4096)
	f := p.MustAlloc()
	f.Get()
	if f.Refs() != 2 {
		t.Fatalf("refs = %d", f.Refs())
	}
	p.Put(f)
	if p.UsedPages() != 1 {
		t.Fatal("frame freed while referenced")
	}
	p.Put(f)
	if p.UsedPages() != 0 {
		t.Fatal("frame not freed at zero refs")
	}
}

func TestReuseZeroesData(t *testing.T) {
	p := NewPool("test", Local, 4096, 4096)
	f := p.MustAlloc()
	f.Data = 42
	p.Put(f)
	g := p.MustAlloc()
	if g.Data != 0 {
		t.Fatalf("reused frame data = %d, want 0", g.Data)
	}
}

func TestPutForeignFramePanics(t *testing.T) {
	a := NewPool("a", Local, 4096, 4096)
	b := NewPool("b", Local, 4096, 4096)
	f := a.MustAlloc()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on foreign Put")
		}
	}()
	b.Put(f)
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPool("test", Local, 4096, 4096)
	f := p.MustAlloc()
	p.Put(f)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double free")
		}
	}()
	p.Put(f)
}

func TestCopy(t *testing.T) {
	p := NewPool("test", Local, 2*4096, 4096)
	a := p.MustAlloc()
	b := p.MustAlloc()
	a.Data = NewToken()
	Copy(b, a)
	if b.Data != a.Data {
		t.Fatal("Copy did not transfer content token")
	}
}

func TestNewTokenUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		tok := NewToken()
		if tok == 0 || seen[tok] {
			t.Fatalf("token %d duplicate or zero", tok)
		}
		seen[tok] = true
	}
}

// TestAllocFreeProperty checks via random alloc/free interleavings that
// used-count accounting never drifts and freed frames are reusable.
func TestAllocFreeProperty(t *testing.T) {
	f := func(ops []bool) bool {
		p := NewPool("prop", Local, 32*4096, 4096)
		var live []*Frame
		for _, alloc := range ops {
			if alloc && p.FreePages() > 0 {
				live = append(live, p.MustAlloc())
			} else if len(live) > 0 {
				p.Put(live[len(live)-1])
				live = live[:len(live)-1]
			}
			if p.UsedPages() != len(live) {
				return false
			}
			if p.UsedPages()+p.FreePages() != p.CapacityPages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameOutOfRangePanics(t *testing.T) {
	p := NewPool("test", Local, 4096, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range pfn")
		}
	}()
	p.Frame(99)
}

func TestUtilization(t *testing.T) {
	p := NewPool("test", Local, 4*4096, 4096)
	p.MustAlloc()
	if got := p.Utilization(); got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
}
