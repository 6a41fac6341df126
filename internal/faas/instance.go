package faas

import (
	"fmt"
	"math/rand"

	"cxlfork/internal/des"
	"cxlfork/internal/fsim"
	"cxlfork/internal/kernel"
	"cxlfork/internal/params"
	"cxlfork/internal/pt"
	"cxlfork/internal/vma"
)

// Address-space bases. Regions are spaced far enough apart that the
// largest function fits with no collisions.
const (
	LibBase     = pt.VirtAddr(0x7f00_0000_0000)
	InitBase    = pt.VirtAddr(0x1_0000_0000)
	ROBase      = pt.VirtAddr(0x2_0000_0000)
	RWBase      = pt.VirtAddr(0x3_0000_0000)
	ScratchBase = pt.VirtAddr(0x4_0000_0000)
)

// ScratchName is the scratch VMA label; the Fig. 1 classifier excludes
// it (transient request scratch is not part of the Table-1 footprint).
const ScratchName = "[scratch]"

// Layout is the concrete page-class geometry of a function instance.
type Layout struct {
	LibPages      int
	InitAnonPages int
	ROPages       int
	RWPages       int
	ScratchPages  int
}

// TotalPages returns the Table-1 footprint in pages (scratch excluded).
func (l Layout) TotalPages() int {
	return l.LibPages + l.InitAnonPages + l.ROPages + l.RWPages
}

// InitPages returns the Init-class page count (libraries + anon init).
func (l Layout) InitPages() int { return l.LibPages + l.InitAnonPages }

// ComputeLayout derives the page-class geometry from a spec.
func ComputeLayout(p params.Params, s Spec) Layout {
	total := p.Pages(s.FootprintBytes)
	lib := p.Pages(s.LibBytes)
	init := int(float64(total) * s.InitFrac)
	ro := int(float64(total) * s.ROFrac)
	rw := total - init - ro
	if init < lib {
		panic(fmt.Sprintf("faas: %s: init class smaller than libraries", s.Name))
	}
	if rw < 1 {
		rw = 1
	}
	return Layout{
		LibPages: lib, InitAnonPages: init - lib, ROPages: ro, RWPages: rw,
		ScratchPages: int(float64(total) * s.ScratchFrac),
	}
}

// LibPath returns the path of library i of a function.
func LibPath(s Spec, i int) string {
	return fmt.Sprintf("/runtime/%s/lib%03d.so", s.Name, i)
}

// libSizes splits the library footprint across the spec's VMA count.
func libSizes(p params.Params, s Spec) []int {
	lib := p.Pages(s.LibBytes)
	n := s.LibVMAs
	if n > lib {
		n = lib
	}
	sizes := make([]int, n)
	base := lib / n
	extra := lib % n
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

// RegisterFiles creates the function's library files on the shared root
// filesystem (the container image contents).
func RegisterFiles(fs *fsim.FS, p params.Params, s Spec) {
	for i, pages := range libSizes(p, s) {
		fs.Create(LibPath(s, i), int64(pages)*int64(p.PageSize))
	}
}

// WarmLibraries pre-pulls the function's libraries into a node's page
// cache (image pre-pull on a steady-state node).
func WarmLibraries(o *kernel.OS, s Spec) error {
	for i := range libSizes(o.P, s) {
		if err := o.WarmFile(LibPath(s, i)); err != nil {
			return err
		}
	}
	return nil
}

// Instance is one function instance: a task plus its layout and
// execution bookkeeping.
type Instance struct {
	Spec Spec
	L    Layout
	Task *kernel.Task

	// steadyWarm memoizes the steady-state warm invocation duration for
	// bulk warmups (identical invocations replay at measured cost).
	steadyWarm des.Time
}

// NewInstance creates a fresh (cold, unpopulated) instance on a node.
// The address space is mapped and descriptors are opened, but no page is
// touched; ColdInit performs state initialization.
func NewInstance(o *kernel.OS, s Spec) (*Instance, error) {
	task := o.NewTask(s.Name)
	in := &Instance{Spec: s, L: ComputeLayout(o.P, s), Task: task}

	va := LibBase
	for i, pages := range libSizes(o.P, s) {
		end := va + pt.VirtAddr(pages<<pt.PageShift)
		_, err := task.MM.Mmap(vma.VMA{
			Start: va, End: end, Prot: vma.Read | vma.Exec,
			Kind: vma.FilePrivate, Path: LibPath(s, i), Name: fmt.Sprintf("lib%03d", i),
		})
		if err != nil {
			return nil, err
		}
		va = end
	}
	type region struct {
		base  pt.VirtAddr
		pages int
		name  string
	}
	for _, r := range []region{
		{InitBase, in.L.InitAnonPages, "[init]"},
		{ROBase, in.L.ROPages, "[model]"},
		{RWBase, in.L.RWPages, "[heap]"},
		{ScratchBase, in.L.ScratchPages, ScratchName},
	} {
		if r.pages == 0 {
			continue
		}
		_, err := task.MM.Mmap(vma.VMA{
			Start: r.base, End: r.base + pt.VirtAddr(r.pages<<pt.PageShift),
			Prot: vma.Read | vma.Write, Kind: vma.Anon, Name: r.name,
		})
		if err != nil {
			return nil, err
		}
	}

	for i := 0; i < s.FDCount; i++ {
		if i%3 == 0 {
			task.FDs.Open(kernel.FDSocket, fmt.Sprintf("sock:%s:%d", s.Name, i), 0o600)
		} else {
			task.FDs.Open(kernel.FDFile, LibPath(s, i%s.LibVMAs), 0o444)
		}
	}
	return in, nil
}

// Adopt wraps a restored task (whose address space came from a
// checkpoint of this spec) as an instance.
func Adopt(task *kernel.Task, s Spec) *Instance {
	return &Instance{Spec: s, L: ComputeLayout(task.OS.P, s), Task: task}
}

// ColdInit performs cold state initialization: runtime boot compute,
// function compute (model loading), and population of the whole
// footprint — libraries are read, anonymous state is written.
func (in *Instance) ColdInit() error {
	o := in.Task.OS
	o.Eng.Advance(params.RuntimeColdInit + in.Spec.InitComputeNs)
	mm := in.Task.MM
	for i := 0; i < in.L.LibPages; i++ {
		if err := mm.Access(LibBase+pt.VirtAddr(i<<pt.PageShift), false); err != nil {
			return err
		}
	}
	for _, r := range []struct {
		base  pt.VirtAddr
		pages int
	}{{InitBase, in.L.InitAnonPages}, {ROBase, in.L.ROPages}, {RWBase, in.L.RWPages}, {ScratchBase, in.L.ScratchPages}} {
		for i := 0; i < r.pages; i++ {
			if err := mm.Access(r.base+pt.VirtAddr(i<<pt.PageShift), true); err != nil {
				return err
			}
		}
	}
	return nil
}

// Invoke executes one invocation mechanistically and returns its
// duration. rng varies which Init-class pages the request touches
// (different inputs exercise different code paths).
func (in *Instance) Invoke(rng *rand.Rand) (des.Time, error) {
	o := in.Task.OS
	mm := in.Task.MM
	start := o.Eng.Now()
	s := in.Spec

	// Rarely-accessed Init-class touches. Most of the touched set is the
	// same hot runtime code paths every request takes; a small tail
	// varies with the input.
	initTotal := in.L.InitPages()
	touches := int(float64(initTotal) * s.InitTouchFrac)
	fixed := touches * 3 / 4
	off := 0
	if rng != nil && initTotal > 0 {
		off = rng.Intn(initTotal)
	}
	for j := 0; j < touches; j++ {
		var idx int
		if j < fixed {
			idx = (j * 61) % initTotal // 61 is coprime to page counts; spreads touches
		} else {
			idx = (off + j*61) % initTotal
		}
		var va pt.VirtAddr
		if idx < in.L.LibPages {
			va = LibBase + pt.VirtAddr(idx<<pt.PageShift)
		} else {
			va = InitBase + pt.VirtAddr((idx-in.L.LibPages)<<pt.PageShift)
		}
		if err := mm.Access(va, false); err != nil {
			return 0, err
		}
	}

	// Read-only working set sweeps.
	for sweep := 0; sweep < s.ROSweeps; sweep++ {
		for j := 0; j < in.L.ROPages; j++ {
			if err := mm.Access(ROBase+pt.VirtAddr(j<<pt.PageShift), false); err != nil {
				return 0, err
			}
			mm.AccessRepeat(s.RepeatsPerPage)
		}
	}

	// Read-write working set.
	for j := 0; j < in.L.RWPages; j++ {
		if err := mm.Access(RWBase+pt.VirtAddr(j<<pt.PageShift), true); err != nil {
			return 0, err
		}
		mm.AccessRepeat(s.RepeatsPerPage)
	}

	// Request scratch: transient allocations written on every request.
	for j := 0; j < in.L.ScratchPages; j++ {
		if err := mm.Access(ScratchBase+pt.VirtAddr(j<<pt.PageShift), true); err != nil {
			return 0, err
		}
	}

	o.Eng.Advance(s.WarmComputeNs)
	in.Task.Invocations++
	return o.Eng.Now() - start, nil
}

// Warmup performs n invocations, simulating the first two mechanistically
// and replaying the measured steady-state duration for the rest (warm
// invocations of an unchanged instance are identical; this keeps the
// 16-invocation pre-checkpoint warmups affordable).
func (in *Instance) Warmup(n int, rng *rand.Rand) error {
	for i := 0; i < n; i++ {
		if i < 2 || in.steadyWarm == 0 {
			d, err := in.Invoke(rng)
			if err != nil {
				return err
			}
			if i >= 1 {
				in.steadyWarm = d
			}
			continue
		}
		in.Task.OS.Eng.Advance(in.steadyWarm)
		in.Task.Invocations++
	}
	return nil
}

// PrepareParent warms a checkpoint parent to its n-th invocation the way
// §5 prepares one: after the first invocation it clears the A and D bits,
// so the bits a checkpoint later captures record the steady state, not
// initialization; then Warmup runs the remaining n-1. n < 1 does nothing.
func (in *Instance) PrepareParent(n int, rng *rand.Rand) error {
	if n < 1 {
		return nil
	}
	if _, err := in.Invoke(rng); err != nil {
		return err
	}
	in.Task.MM.PT.ClearABits()
	in.Task.MM.PT.ClearDirtyBits()
	return in.Warmup(n-1, rng)
}

// SteadyWarm returns the memoized steady-state invocation duration
// (zero until two invocations have run).
func (in *Instance) SteadyWarm() des.Time { return in.steadyWarm }

// Exit tears the instance down, freeing its memory.
func (in *Instance) Exit() { in.Task.OS.Exit(in.Task) }
