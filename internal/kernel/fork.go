package kernel

import (
	"cxlfork/internal/cachesim"
	"cxlfork/internal/des"
	"cxlfork/internal/params"
	"cxlfork/internal/pt"
	"cxlfork/internal/vma"
)

// Fork implements local fork(): the child shares the parent's anonymous
// pages copy-on-write and inherits descriptors and namespaces. Following
// the paper's LocalFork baseline (§7.1), private file mappings are
// re-populated lazily in the child — the child takes page-cache minor
// faults on the library pages it touches, which is precisely the cost
// CXLfork avoids by checkpointing clean file pages.
func (o *OS) Fork(parent *Task, name string) (*Task, error) {
	op := o.BeginOp("fork")
	child := o.NewTask(name) // charges TaskCreate

	child.Regs = parent.Regs
	child.FDs = parent.FDs.clone()
	child.NS = parent.NS

	var cost des.Time

	// Duplicate the VMA tree, preserving IDs so backing info carries over.
	var vmaErr error
	parent.MM.VMAs.Walk(func(v vma.VMA) {
		if vmaErr != nil {
			return
		}
		if _, err := child.MM.VMAs.Insert(v); err != nil {
			vmaErr = err
		}
		cost += params.ForkVMACopy
	})
	if vmaErr != nil {
		o.Exit(child)
		return nil, op.Fail("vma-copy", vmaErr)
	}

	// Copy page tables for anonymous pages; downgrade writable mappings
	// to copy-on-write on both sides. File-backed PTEs are dropped in
	// the child (lazy re-population).
	parent.MM.PT.Walk(func(va pt.VirtAddr, leaf *pt.Leaf, i int) {
		e := leaf.PTEs[i]
		if e.Flags.Has(pt.FileBacked) {
			return
		}
		if e.Flags.Has(pt.OnCXL) {
			// Parent is itself a clone mapping checkpoint pages: the
			// child shares the same read-only CXL mapping.
			child.MM.PT.Set(va, e)
			cost += params.PTECopy
			return
		}
		if e.Flags.Has(pt.Writable) {
			// Downgrade the parent in place. Writable PTEs can only
			// live in local leaves, so this never breaks a leaf.
			leaf.PTEs[i].Flags = (e.Flags &^ pt.Writable) | pt.CoW
			o.TLB.Invalidate(cachesim.Key(parent.MM.ASID, va.PageNumber()))
		}
		childFlags := (e.Flags &^ (pt.Writable | pt.Dirty)) | pt.CoW
		frame := o.Mem.Frame(int(e.PFN))
		frame.Get()
		child.MM.PT.Set(va, pt.PTE{Flags: childFlags, PFN: e.PFN})
		cost += 2 * params.PTECopy
	})

	// One batched TLB flush for the parent's downgraded mappings.
	cost += params.TLBShootdown
	o.Eng.Advance(cost)
	op.Done(0, 0)
	return child, nil
}
