package faas

import (
	"math/rand"

	"cxlfork/internal/kernel"
	"cxlfork/internal/pt"
)

// Breakdown is a function's footprint split by access class (Fig. 1).
type Breakdown struct {
	Name string
	// Fractions of the footprint in each class; they sum to 1.
	InitFrac, ROFrac, RWFrac float64
	// TotalPages is the observed footprint.
	TotalPages int
}

// ClassifyFootprint reproduces the paper's Fig. 1 methodology: spawn the
// function, invoke it `invocations` times with different inputs, and
// classify each footprint page by observed access pattern:
//
//   - Read-write: pages written during invocations (cumulative D bit),
//   - Read-only: pages read in at least half the invocations,
//   - Init: everything else — pages used for initialization and rarely
//     touched afterwards.
//
// Access frequency is measured exactly as a profiler would: clear the
// page-table A bits before each invocation, count which pages have A
// set after it.
func ClassifyFootprint(o *kernel.OS, s Spec, invocations int, rng *rand.Rand) (Breakdown, error) {
	in, err := NewInstance(o, s)
	if err != nil {
		return Breakdown{}, err
	}
	defer in.Exit()
	if err := in.ColdInit(); err != nil {
		return Breakdown{}, err
	}

	mm := in.Task.MM
	mm.PT.ClearABits()
	mm.PT.ClearDirtyBits()

	accessCount := make(map[pt.VirtAddr]int)
	for i := 0; i < invocations; i++ {
		if _, err := in.Invoke(rng); err != nil {
			return Breakdown{}, err
		}
		mm.PT.Walk(func(va pt.VirtAddr, l *pt.Leaf, idx int) {
			if l.PTEs[idx].Flags.Has(pt.Accessed) {
				accessCount[va]++
			}
		})
		mm.PT.ClearABits()
	}

	var b Breakdown
	b.Name = s.Name
	threshold := invocations / 2
	var init, ro, rw int
	mm.PT.Walk(func(va pt.VirtAddr, l *pt.Leaf, idx int) {
		if va >= ScratchBase && va < ScratchBase+pt.VirtAddr(in.L.ScratchPages<<pt.PageShift) {
			return // transient request scratch is not footprint
		}
		b.TotalPages++
		switch {
		case l.PTEs[idx].Flags.Has(pt.Dirty):
			rw++
		case accessCount[va] >= threshold:
			ro++
		default:
			init++
		}
	})
	total := float64(b.TotalPages)
	b.InitFrac = float64(init) / total
	b.ROFrac = float64(ro) / total
	b.RWFrac = float64(rw) / total
	return b, nil
}
