package kernel

import (
	"fmt"

	"cxlfork/internal/des"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
	"cxlfork/internal/pt"
	"cxlfork/internal/vma"
)

// MmapShared maps nPages of fabric-shared memory backed by freshly
// allocated CXL frames, writable through explicit Publish writes only
// (loads go through the normal access path at CXL latency). This is the
// shared-memory communication extension §8 sketches for FaaS workflows:
// a producer publishes a payload once, and consumers on any node map the
// same frames by reference instead of copying.
//
// It returns the mapping and the device frame numbers, which another
// process (on any node) can map with MapSharedFrames.
func (mm *MM) MmapShared(start pt.VirtAddr, nPages int, name string) (vma.VMA, []int32, error) {
	v, err := mm.VMAs.Insert(vma.VMA{
		Start: start, End: start + pt.VirtAddr(nPages<<pt.PageShift),
		Prot: vma.Read, Kind: vma.Anon, Name: name,
	})
	if err != nil {
		return vma.VMA{}, nil, err
	}
	pool := mm.OS.Dev.Pool()
	pfns := make([]int32, nPages)
	frames := make([]*memsim.Frame, 0, nPages)
	for i := 0; i < nPages; i++ {
		f, err := pool.Alloc()
		if err != nil {
			for _, g := range frames {
				pool.Put(g)
			}
			return vma.VMA{}, nil, err
		}
		frames = append(frames, f)
		pfns[i] = int32(f.PFN())
		mm.MapCXL(start+pt.VirtAddr(i<<pt.PageShift), pfns[i], pt.Accessed)
	}
	// The producer owns the shared frames; they are reclaimed when it
	// exits (consumers must not outlive the producer, as with any
	// shared-memory segment whose owner tears it down).
	mm.OnExit(func() {
		for _, f := range frames {
			pool.Put(f)
		}
	})
	return v, pfns, nil
}

// MapSharedFrames maps existing CXL frames (published by another
// process via MmapShared) into this address space, read-only, zero-copy.
func (mm *MM) MapSharedFrames(start pt.VirtAddr, pfns []int32, name string) (vma.VMA, error) {
	v, err := mm.VMAs.Insert(vma.VMA{
		Start: start, End: start + pt.VirtAddr(len(pfns)<<pt.PageShift),
		Prot: vma.Read, Kind: vma.Anon, Name: name,
	})
	if err != nil {
		return vma.VMA{}, err
	}
	var cost des.Time
	for i, pfn := range pfns {
		mm.MapCXL(start+pt.VirtAddr(i<<pt.PageShift), pfn, pt.Accessed)
		cost += params.PTECopy
	}
	mm.OS.Eng.Advance(cost)
	return v, nil
}

// Publish writes one page of a shared mapping: the producer streams the
// payload into the CXL frame with a non-temporal store (§8's coherence
// argument: consumers only read after publication).
func (mm *MM) Publish(va pt.VirtAddr, token uint64) error {
	e, _ := mm.PT.Lookup(va)
	if !e.Present() || !e.Flags.Has(pt.OnCXL) {
		return fmt.Errorf("kernel: publish outside a shared CXL mapping at %#x", uint64(va))
	}
	mm.OS.Dev.Pool().Frame(int(e.PFN)).Data = token
	mm.OS.Dev.WriteBytes += int64(mm.OS.P.PageSize)
	mm.OS.Eng.Advance(mm.OS.P.CXLWritePage)
	return nil
}
