package criu

import (
	"fmt"

	"cxlfork/internal/des"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/fsim"
	"cxlfork/internal/kernel"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
	"cxlfork/internal/pt"
	"cxlfork/internal/rfork"
	"cxlfork/internal/trace"
	"cxlfork/internal/vma"
	"cxlfork/internal/wire"
)

// Image is a CRIU checkpoint: a serialized image file on cxlfs.
type Image struct {
	id    string
	fs    *fsim.CXLFS
	file  string
	pages int
	size  int64
	refs  rfork.RefCount
}

var _ rfork.Image = (*Image)(nil)

// ID returns the checkpoint ID.
func (im *Image) ID() string { return im.id }

// Mechanism returns "CRIU-CXL".
func (im *Image) Mechanism() string { return "CRIU-CXL" }

// CXLBytes returns the image file size on the CXL filesystem.
func (im *Image) CXLBytes() int64 { return im.size }

// LocalBytes is zero: the image is fully decoupled from the parent node.
func (im *Image) LocalBytes() int64 { return 0 }

// Pages returns the number of page records in the image.
func (im *Image) Pages() int { return im.pages }

// Refs returns the reference count.
func (im *Image) Refs() int { return im.refs.Count() }

// Retain adds a reference.
func (im *Image) Retain() { im.refs.Retain() }

// Release drops a reference; at zero the image file is deleted.
// Releasing a dead image is a no-op.
func (im *Image) Release() {
	if im.refs.Release() {
		im.fs.Remove(im.file)
	}
}

// Mechanism is the CRIU-CXL rfork.Mechanism.
type Mechanism struct {
	// FS is the shared in-CXL-memory filesystem holding image files.
	FS *fsim.CXLFS
	// Faults is the fault-injection plan consulted at step boundaries.
	// May be nil (no faults).
	Faults *faultinject.Plan
}

// New returns the CRIU-CXL mechanism writing images to fs.
func New(fs *fsim.CXLFS) *Mechanism { return &Mechanism{FS: fs} }

// Name returns "CRIU-CXL".
func (m *Mechanism) Name() string { return "CRIU-CXL" }

// Image message field tags.
const (
	fieldVMA    = 1
	fieldGlobal = 2
	fieldPage   = 3

	pageFieldVPN   = 1
	pageFieldToken = 2
)

// pageShard is the page-dump granularity one worker lane claims at a
// time, mirroring CRIU's page-pipe batches. Page serialization has no
// per-VMA grouping in the image format, so lanes shard the flat page
// run in these chunks.
const pageShard = 128

// Checkpoint serializes the full process state — OS metadata and every
// non-clean-file memory page — into an image file on cxlfs.
func (m *Mechanism) Checkpoint(parent *kernel.Task, id string) (rfork.Image, error) {
	o := parent.OS
	p := o.P
	op := o.BeginOp("checkpoint")
	if err := m.Faults.At(faultinject.StepCheckpointVMA, o.Index); err != nil {
		return nil, op.Fail("vma", err)
	}
	var cost des.Time

	enc := wire.NewEncoder()
	vmaCount := 0
	parent.MM.VMAs.Walk(func(v vma.VMA) {
		enc.PutBytes(fieldVMA, rfork.EncodeVMA(v))
		vmaCount++
		cost += params.CRIURecordEncode
	})
	gs := rfork.CaptureGlobalState(parent)
	enc.PutBytes(fieldGlobal, gs.Encode())
	cost += des.Time(len(gs.FDs)) * params.CRIURecordEncode
	cost += params.CRIURecordEncode // task metadata record
	op.Phase("serialize", cost, 0, 0)

	pages := 0
	parent.MM.PT.Walk(func(va pt.VirtAddr, leaf *pt.Leaf, i int) {
		e := leaf.PTEs[i]
		if e.Flags.Has(pt.FileBacked) {
			return // clean private file pages are re-faulted, not imaged
		}
		var src *memsim.Frame
		if e.Flags.Has(pt.OnCXL) {
			src = o.Dev.Pool().Frame(int(e.PFN))
		} else {
			src = o.Mem.Frame(int(e.PFN))
		}
		pg := wire.NewEncoder()
		pg.PutUint(pageFieldVPN, va.PageNumber())
		pg.PutUint(pageFieldToken, src.Data)
		enc.PutMessage(fieldPage, pg)
		pages++
	})
	// Page dumps run on the checkpoint lanes; the encoded stream goes to
	// the in-CXL-memory filesystem, so the copies contend on the fabric
	// streams. One lane charges the exact serial per-page sum.
	op.Lanes("page-dump", int64(pages)*int64(p.PageSize), pages, p.CheckpointLanes, params.FabricStreams,
		des.UniformShards(pages, pageShard, 0, m.Faults.Scale(params.CRIUPageSerialize)),
		trace.ShardNames{Tail: "page-batch"})

	logical := int64(pages)*int64(p.PageSize) + int64(vmaCount+len(gs.FDs)+1)*64
	file := "criu-" + id + ".img"
	if err := m.Faults.At(faultinject.StepCheckpointGlobal, o.Index); err != nil {
		return nil, op.Fail("global", err)
	}
	// The whole image goes through a checksummed envelope so Restore can
	// reject a torn or bit-flipped file before reconstructing anything.
	blob := wire.SealEnvelope(enc.Bytes())
	m.Faults.Corrupt(faultinject.StepCheckpointGlobal, o.Index, id, blob)
	if err := m.FS.Write(file, blob, logical); err != nil {
		return nil, op.Fail("write", err)
	}
	o.Eng.Advance(op.Dur())
	op.Done(logical, pages)
	return &Image{id: id, fs: m.FS, file: file, pages: pages, size: logical, refs: rfork.NewRefCount()}, nil
}

// Restore deserializes the image on the child's node, reconstructing
// every VMA, reopening every descriptor, and copying every imaged page
// into local memory.
func (m *Mechanism) Restore(child *kernel.Task, img rfork.Image, _ rfork.Options) error {
	im, ok := img.(*Image)
	if !ok {
		return fmt.Errorf("criu: image %s is %T, not a CRIU image", img.ID(), img)
	}
	o := child.OS
	p := o.P
	op := o.BeginOp("restore")
	if err := m.Faults.At(faultinject.StepRestoreAttach, o.Index); err != nil {
		return op.Fail("attach", err)
	}
	if im.refs.Count() <= 0 {
		return op.Fail("validate", fmt.Errorf("criu: restore from reclaimed image %s", im.id))
	}
	envelope, err := m.FS.Read(im.file)
	if err != nil {
		return op.Fail("read", err)
	}

	// Validate and fully decode the image before mutating the child: a
	// damaged file must surface as ErrImageCorrupt with the child
	// untouched, never as a half-reconstructed address space.
	gs, vmas, pageRecs, decCost, err := decodeImage(im.id, envelope, p)
	if err != nil {
		return op.Fail("decode", err)
	}
	op.Phase("decode", decCost, 0, 0)

	// Decode succeeded; reconstruct the child.
	for _, v := range vmas {
		if _, err := child.MM.VMAs.Insert(v); err != nil {
			return op.Fail("attach", err)
		}
	}

	// Copy every imaged page into local memory and map it.
	for _, rec := range pageRecs {
		va := pt.VirtAddr(rec.vpn << pt.PageShift)
		v := child.MM.VMAs.Find(va)
		if v == nil {
			return op.Fail("attach", fmt.Errorf("criu: page %#x outside any restored VMA", rec.vpn))
		}
		f, err := o.Mem.Alloc()
		if err != nil {
			return op.Fail("alloc", err)
		}
		f.Data = rec.token
		flags := pt.Accessed
		if v.Prot&vma.Write != 0 {
			flags |= pt.Writable
		}
		child.MM.MapFrame(va, f, flags)
		o.Mem.Put(f) // MapFrame took the mapping reference
	}
	// VMA record decode/reconstruct and page copy-in run on the restore
	// lanes, reading the image off the CXL filesystem through the fabric
	// streams. Each VMA is one metadata shard; pages shard in chunks.
	shards := make([]des.Shard, 0, len(vmas))
	for range vmas {
		shards = append(shards, des.Shard{Setup: params.CRIURecordDecode + params.VMAReconstruct})
	}
	shards = append(shards, des.UniformShards(len(pageRecs), pageShard, 0, m.Faults.Scale(params.CRIUPageRestore))...)
	op.Lanes("page-restore", int64(len(pageRecs))*int64(p.PageSize), len(pageRecs), p.RestoreLanes, params.FabricStreams,
		shards, trace.ShardNames{Head: "vma-record", Split: len(vmas), Tail: "page-batch"})

	o.Eng.Advance(op.Dur())
	if err := rfork.RestoreGlobalState(child, gs); err != nil {
		return op.Fail("global", err)
	}
	op.Clocked("global-restore", 0, 0)

	im.Retain()
	child.MM.OnExit(im.Release)
	op.Done(im.size, im.pages)
	return nil
}

// decodeImage verifies the envelope and fully decodes a CRIU image into
// its global state, VMA records, and page records, along with the
// serial record-decode cost. Any damage surfaces as ErrImageCorrupt.
func decodeImage(id string, envelope []byte, p params.Params) (rfork.GlobalState, []vma.VMA, []pageRecord, des.Time, error) {
	var gs rfork.GlobalState
	var cost des.Time
	corrupt := func(err error) error {
		return fmt.Errorf("criu: image %s: %w: %v", id, rfork.ErrImageCorrupt, err)
	}
	blob, err := wire.OpenEnvelope(envelope)
	if err != nil {
		return gs, nil, nil, 0, corrupt(err)
	}
	var haveGS bool
	var vmas []vma.VMA
	var pageRecs []pageRecord

	d := wire.NewDecoder(blob)
	for d.More() {
		switch field, wt := d.Next(); field {
		case fieldVMA:
			v, err := rfork.DecodeVMA(d.Bytes())
			d.Fail(err)
			vmas = append(vmas, v) // decode+reconstruct cost folded into the lane pipeline
		case fieldGlobal:
			gs, err = rfork.DecodeGlobalState(d.Bytes())
			d.Fail(err)
			haveGS = true
			cost += des.Time(len(gs.FDs)) * params.CRIURecordDecode
		case fieldPage:
			rec, err := decodePage(d.Bytes())
			d.Fail(err)
			pageRecs = append(pageRecs, rec)
		default:
			d.Skip(wt)
		}
	}
	if err := d.Err(); err != nil {
		return gs, nil, nil, 0, corrupt(err)
	}
	if !haveGS {
		return gs, nil, nil, 0, fmt.Errorf("criu: image %s has no global state: %w", id, rfork.ErrImageCorrupt)
	}
	return gs, vmas, pageRecs, cost, nil
}

type pageRecord struct {
	vpn   uint64
	token uint64
}

func decodePage(b []byte) (pageRecord, error) {
	var rec pageRecord
	d := wire.NewDecoder(b)
	for d.More() {
		switch field, wt := d.Next(); field {
		case pageFieldVPN:
			rec.vpn = d.Uint()
		case pageFieldToken:
			rec.token = d.Uint()
		default:
			d.Skip(wt)
		}
	}
	return rec, d.Err()
}
