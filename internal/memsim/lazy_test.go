package memsim

import (
	"errors"
	"math/rand"
	"testing"
)

// eagerPool is the frame pool with every frame built up front and a
// free stack pre-filled high to low, the layout the lazy pool replaces.
// It is the reference for the PFN and generation sequence.
type eagerPool struct {
	gens []uint32
	free []int
}

func newEagerPool(n int) *eagerPool {
	e := &eagerPool{gens: make([]uint32, n), free: make([]int, n)}
	for i := range e.free {
		e.free[i] = n - 1 - i
	}
	return e
}

func (e *eagerPool) alloc() (pfn int, gen uint32, ok bool) {
	if len(e.free) == 0 {
		return 0, 0, false
	}
	pfn = e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.gens[pfn]++
	return pfn, e.gens[pfn], true
}

func (e *eagerPool) put(pfn int) { e.free = append(e.free, pfn) }

// TestLazyPoolMatchesEagerStack fills a pool spanning two chunks to
// exhaustion, drains it and refills it under random Alloc and Put, and
// requires the lazy pool to hand out the eager stack's PFN and
// generation sequence, failing with ErrOutOfMemory exactly when all
// CapacityPages frames are in use.
func TestLazyPoolMatchesEagerStack(t *testing.T) {
	const n = chunkFrames + 100
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPool("lazy", Local, n*4096, 4096)
		ref := newEagerPool(n)

		// A never-allocated pfn in a chunk nothing has touched yet is a
		// free frame of this pool, and Alloc later hands out that same
		// frame.
		untouched := p.Frame(n - 1)
		if untouched.PFN() != n-1 || untouched.Refs() != 0 || untouched.Pool() != p || untouched.Data != 0 {
			t.Fatalf("Frame(%d) = pfn %d refs %d data %d", n-1, untouched.PFN(), untouched.Refs(), untouched.Data)
		}

		var live []*Frame
		ooms := 0
		for step := 0; step < 30000; step++ {
			bias := []float64{0.8, 0.3, 0.7}[step/10000]
			if rng.Float64() < bias {
				f, err := p.Alloc()
				pfn, gen, ok := ref.alloc()
				if !ok {
					if !errors.Is(err, ErrOutOfMemory) || p.UsedPages() != p.CapacityPages() {
						t.Fatalf("step %d: reference full, lazy Alloc err %v with %d of %d used",
							step, err, p.UsedPages(), p.CapacityPages())
					}
					ooms++
					continue
				}
				if err != nil {
					t.Fatalf("step %d: Alloc: %v with %d of %d used", step, err, p.UsedPages(), p.CapacityPages())
				}
				if f.PFN() != pfn || f.gen != gen {
					t.Fatalf("step %d: Alloc gave pfn %d gen %d, eager stack pfn %d gen %d", step, f.PFN(), f.gen, pfn, gen)
				}
				if f != p.Frame(pfn) || (pfn == n-1 && f != untouched) {
					t.Fatalf("step %d: Alloc and Frame disagree on pfn %d", step, pfn)
				}
				live = append(live, f)
			} else if len(live) > 0 {
				i := rng.Intn(len(live))
				f := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				p.Put(f)
				ref.put(f.PFN())
			}
		}
		if ooms == 0 {
			t.Fatal("the pool never filled up")
		}
	}
}

// TestNewPoolBuildsNoFrames checks that a large pool costs no frame
// memory until used: only the first chunk exists after one Alloc.
func TestNewPoolBuildsNoFrames(t *testing.T) {
	p := NewPool("big", CXL, 64<<30, 4096)
	p.MustAlloc()
	built := 0
	for _, c := range p.chunks {
		if c != nil {
			built++
		}
	}
	if built != 1 {
		t.Fatalf("%d chunks built after one Alloc, want 1", built)
	}
}
