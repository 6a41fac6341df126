package core

import (
	"fmt"

	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/kernel"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
	"cxlfork/internal/pt"
	"cxlfork/internal/rfork"
	"cxlfork/internal/trace"
	"cxlfork/internal/vma"
)

// Restore clones the checkpointed process into child (paper §4.2,
// Fig. 4b): it attaches the checkpointed VMA and page-table leaves to
// freshly allocated upper levels (constant-time OS-state restore,
// Fig. 5), redoes global state from the light serialization, and — under
// the default migrate-on-write policy — opportunistically prefetches
// checkpoint-dirty pages into local memory after resuming.
func (m *Mechanism) Restore(child *kernel.Task, img rfork.Image, opts rfork.Options) error {
	ck, ok := img.(*Checkpoint)
	if !ok {
		return fmt.Errorf("core: image %s is %T, not a CXLfork checkpoint", img.ID(), img)
	}
	o := child.OS
	p := o.P
	op := o.BeginOp("restore")
	if err := m.Faults.At(faultinject.StepRestoreAttach, o.Index); err != nil {
		return op.Fail("attach", err)
	}

	// Validate the image before touching the child: a reclaimed or torn
	// (unsealed) checkpoint must never be attached, and the global-state
	// blob must decode cleanly — it is needed after the attach, when a
	// failure would leave the child half-mutated.
	if ck.refs.Count() <= 0 {
		return op.Fail("validate", fmt.Errorf("core: restore from reclaimed checkpoint %s", ck.id))
	}
	if !ck.arena.Sealed() {
		return op.Fail("validate", fmt.Errorf("core: checkpoint %s: %w", ck.id, rfork.ErrTornImage))
	}
	gs, err := ck.globalState()
	if err != nil {
		return op.Fail("validate", err)
	}
	shards := m.shardScratch[:0]
	defer func() { m.shardScratch = shards[:0] }()

	// Attach the MM descriptor view: the VMA leaves (§4.2.1). Global
	// state for file VMAs is reconstructed lazily at first fault. The
	// naive ablation reconstructs every VMA individually and eagerly
	// instead. Each leaf is one lane shard of metadata work; the shards
	// fold into virtual time through the lane pipeline below (one lane =
	// the exact serial sum; several lanes = the fabric contention model).
	if opts.NaivePTCopy {
		for _, off := range ck.vmaLeaves {
			leaf := cxl.Get[*vma.Leaf](ck.arena, off)
			for _, v := range leaf.VMAs {
				if _, err := child.MM.VMAs.Insert(v); err != nil {
					return op.Fail("attach", err)
				}
			}
			shards = append(shards, des.Shard{Setup: des.Time(len(leaf.VMAs)) * params.VMAReconstruct})
		}
	} else {
		for _, off := range ck.vmaLeaves {
			leaf := cxl.Get[*vma.Leaf](ck.arena, off)
			if err := child.MM.VMAs.AttachLeaf(leaf); err != nil {
				return op.Fail("attach", err)
			}
			shards = append(shards, des.Shard{Setup: params.VMALeafAttach})
		}
		child.MM.LazyVMAs = true
	}
	nVMA := len(shards)
	op.Phase("struct-copy", params.StructCopy, 0, 0) // MM descriptor upper levels

	switch opts.Policy {
	case rfork.MigrateOnWrite:
		if opts.NaivePTCopy {
			// Ablation §4.2: copy every checkpointed leaf to local
			// memory (read the table from CXL, write each entry)
			// instead of attaching. The CXL read of the leaf is the
			// shard's one fabric unit; entry rewrites and upper-level
			// allocation are lane-local.
			for _, ref := range ck.ptLeaves {
				leaf := cxl.Get[*pt.Leaf](ck.arena, ref.off)
				local := leaf.Clone()
				local.Protected = true // PTEs stay read-only CoW
				before := child.MM.PT.Stats().LocalUppers
				if err := child.MM.PT.AttachLeaf(ref.base, local); err != nil {
					return op.Fail("attach", err)
				}
				newUppers := child.MM.PT.Stats().LocalUppers - before
				shards = append(shards, des.Shard{
					Setup:    pt.EntriesPerTable*params.PTECopy + des.Time(newUppers)*params.UpperTableInit,
					Units:    1,
					UnitCost: p.CXLReadPage,
				})
			}
		} else {
			// Constant-time attach: allocate only the upper levels
			// locally and link the checkpointed leaves (Fig. 5).
			for _, ref := range ck.ptLeaves {
				leaf := cxl.Get[*pt.Leaf](ck.arena, ref.off)
				before := child.MM.PT.Stats().LocalUppers
				if err := child.MM.PT.AttachLeaf(ref.base, leaf); err != nil {
					return op.Fail("attach", err)
				}
				newUppers := child.MM.PT.Stats().LocalUppers - before
				shards = append(shards, des.Shard{
					Setup: params.LeafAttach + des.Time(newUppers)*params.UpperTableInit,
				})
			}
		}
	case rfork.MigrateOnAccess, rfork.HybridTiering:
		// No attach: leave the tree empty and let faults consult the
		// checkpoint through the overlay (§4.3).
		child.MM.Overlay = &ckptOverlay{ck: ck, policy: opts.Policy}
	default:
		return op.Fail("validate", fmt.Errorf("core: unknown tiering policy %v", opts.Policy))
	}
	op.Lanes("attach", 0, len(ck.ptLeaves), p.RestoreLanes, params.FabricStreams, shards,
		trace.ShardNames{Head: "vma-leaf", Split: nVMA, Tail: "pt-leaf"})

	// Redo global state from the light serialization (decoded and
	// verified above, before the child was touched).
	o.Eng.Advance(op.Dur())
	if err := rfork.RestoreGlobalState(child, gs); err != nil {
		return op.Fail("global", err)
	}
	op.Clocked("global-restore", 0, 0)
	gEnd := o.Eng.Now()

	// The clone holds a checkpoint reference until exit.
	ck.Retain()
	child.MM.OnExit(ck.Release)

	// Post-restore page movement. These copies happen after execution
	// resumes (the restore latency a request observes excludes them),
	// but their time is real work charged to the fault budget.
	prefBefore := o.Faults.Counts[kernel.FaultPrefetch]
	switch {
	case opts.Policy == rfork.MigrateOnWrite && !opts.NoDirtyPrefetch:
		m.prefetch(child, ck, func(e pt.PTE) bool { return e.Flags.Has(pt.Dirty) }, true)
	case opts.Policy == rfork.HybridTiering && opts.SyncHotPrefetch:
		// Rejected design (§4.3): synchronously prefetch A-bit pages.
		m.prefetch(child, ck, func(e pt.PTE) bool {
			return e.Flags.Has(pt.Accessed) || e.Flags.Has(pt.UserHot)
		}, false)
	}
	if o.Eng.Now() > gEnd {
		prefPages := int(o.Faults.Counts[kernel.FaultPrefetch] - prefBefore)
		op.Clocked("prefetch", int64(prefPages)*int64(p.PageSize), prefPages)
	}
	op.Done(0, ck.dataPages)
	return nil
}

// prefetch copies checkpointed pages selected by keep into local memory
// and maps them in the child. Writable controls whether the pages are
// mapped ready-to-write (dirty prefetch: >95% of parent-written pages
// are re-written by clones, §4.2.1) or read-only.
func (m *Mechanism) prefetch(child *kernel.Task, ck *Checkpoint, keep func(pt.PTE) bool, writable bool) {
	o := child.OS
	p := o.P
	pool := m.Dev.Pool()
	for _, ref := range ck.ptLeaves {
		leaf := cxl.Get[*pt.Leaf](ck.arena, ref.off)
		for i := range leaf.PTEs {
			e := leaf.PTEs[i]
			if !e.Present() || !keep(e) {
				continue
			}
			va := ref.base + pt.VirtAddr(i)<<pt.PageShift
			local, err := o.Mem.Alloc()
			if err != nil {
				return // out of local memory: stop prefetching, CoW will cope
			}
			memsim.Copy(local, pool.Frame(int(e.PFN)))
			m.Dev.ReadBytes += int64(p.PageSize)
			flags := pt.Accessed | (e.Flags & pt.FileBacked)
			if writable {
				flags |= pt.Writable | pt.Dirty
			} else {
				flags |= pt.CoW
			}
			res := child.MM.MapFrame(va, local, flags)
			o.Mem.Put(local) // MapFrame took the mapping reference
			cost := p.CXLReadPage + params.PTECopy
			if res.BrokeLeaf {
				cost += p.CXLReadPage
			}
			chargePrefetch(child, cost)
		}
	}
}

// chargePrefetch accounts prefetch work in the fault budget.
func chargePrefetch(child *kernel.Task, cost des.Time) {
	mm := child.MM
	mm.OS.Eng.Advance(cost)
	mm.Stats.Faults.Counts[kernel.FaultPrefetch]++
	mm.Stats.Faults.Time += cost
	mm.OS.Faults.Counts[kernel.FaultPrefetch]++
	mm.OS.Faults.Time += cost
}

// ckptOverlay serves faults from the checkpoint under migrate-on-access
// and hybrid tiering (§4.3).
type ckptOverlay struct {
	ck     *Checkpoint
	policy rfork.Policy
}

// Fault resolves va from the checkpoint. Under MoA every page is copied
// to local memory; under hybrid tiering only pages whose checkpointed A
// (or UserHot) bit is set are copied — cold pages are mapped directly
// from CXL, read-only and CoW.
func (ov *ckptOverlay) Fault(mm *kernel.MM, va pt.VirtAddr, write bool) (pt.PTE, des.Time, kernel.FaultKind, bool) {
	e := ov.ck.PTE(va)
	if !e.Present() {
		return pt.PTE{}, 0, 0, false
	}
	o := mm.OS
	p := o.P

	hot := e.Flags.Has(pt.Accessed) || e.Flags.Has(pt.UserHot)
	copyLocal := write || ov.policy == rfork.MigrateOnAccess || hot
	if !copyLocal {
		// Cold page under hybrid tiering: map the CXL frame directly.
		keep := e.Flags & (pt.FileBacked | pt.UserHot)
		pte := pt.PTE{Flags: pt.Present | pt.CoW | pt.OnCXL | pt.Accessed | keep, PFN: e.PFN}
		return pte, params.FaultEntry, kernel.FaultCXLDirect, true
	}

	local, err := o.Mem.Alloc()
	if err != nil {
		// Out of local memory: degrade to a direct CXL mapping rather
		// than failing the access.
		keep := e.Flags & (pt.FileBacked | pt.UserHot)
		pte := pt.PTE{Flags: pt.Present | pt.CoW | pt.OnCXL | pt.Accessed | keep, PFN: e.PFN}
		return pte, params.FaultEntry, kernel.FaultCXLDirect, true
	}
	memsim.Copy(local, ov.ck.dev.Pool().Frame(int(e.PFN)))
	ov.ck.dev.ReadBytes += int64(p.PageSize)
	// The allocation reference becomes the mapping reference installed
	// by the kernel's fault path.

	flags := pt.Accessed | (e.Flags & pt.FileBacked)
	if writableVMA(mm, va) {
		flags |= pt.Writable
	}
	if write {
		flags |= pt.Dirty
		local.Data = memsim.NewToken()
	}
	return pt.PTE{Flags: pt.Present | flags, PFN: int32(local.PFN())}, p.MoAFault(), kernel.FaultMoA, true
}

// writableVMA reports whether the VMA covering va permits stores.
func writableVMA(mm *kernel.MM, va pt.VirtAddr) bool {
	v := mm.VMAs.Find(va)
	return v != nil && v.Prot&vma.Write != 0
}
