package cxl

import (
	"errors"
	"fmt"
	"sort"

	"cxlfork/internal/memsim"
	"cxlfork/internal/metrics"
	"cxlfork/internal/params"
)

// Offset is a machine-independent reference into a checkpoint arena.
// The zero Offset is nil.
type Offset uint64

// Nil is the null arena offset.
const Nil Offset = 0

// ErrDeviceFull is returned when the device cannot hold more data.
var ErrDeviceFull = errors.New("cxl: device full")

// ErrDeviceFailed is returned when an operation touches a device that a
// DeviceLoss fault has permanently failed. Unlike node crashes, device
// loss is not transient: the data is gone and only the replica layer
// can recover it.
var ErrDeviceFailed = errors.New("cxl: device failed")

// Device is one CXL memory device shared by all nodes on the fabric.
type Device struct {
	p        params.Params
	pool     *memsim.Pool
	index    int
	name     string
	capacity int64
	failed   bool

	arenas    map[string]*Arena
	metaBytes int64
	// version counts arena creates, allocs, tracks and releases; with
	// the pool's version it keys the occupancy memo (telemetry.go).
	version uint64

	// dedup is the content-addressed frame index (see dedup.go).
	dedup map[uint64]dedupEntry
	// Dedup counts frame-dedup hits, misses, and fabric bytes saved.
	Dedup metrics.DedupCounters

	// Fabric traffic counters (bytes), for bandwidth analyses.
	ReadBytes  int64
	WriteBytes int64
}

// NewDevice creates a device with capacity p.CXLBytes.
func NewDevice(p params.Params) *Device {
	return NewDeviceSized(p, 0, p.CXLBytes)
}

// NewDeviceSized creates device number index of a pool with the given
// capacity. Device 0 keeps the historical pool name "cxl" so
// single-device telemetry and traces are unchanged.
func NewDeviceSized(p params.Params, index int, capacity int64) *Device {
	name := "cxl"
	if index > 0 {
		name = fmt.Sprintf("cxl%d", index)
	}
	return &Device{
		p:        p,
		pool:     memsim.NewPool(name, memsim.CXL, capacity, p.PageSize),
		index:    index,
		name:     name,
		capacity: capacity,
		arenas:   make(map[string]*Arena),
		dedup:    make(map[uint64]dedupEntry),
	}
}

// Pool returns the device's shared frame pool.
func (d *Device) Pool() *memsim.Pool { return d.pool }

// Index returns the device's position in its pool (0 for a standalone
// device).
func (d *Device) Index() int { return d.index }

// Name returns the device name ("cxl" for device 0, "cxlN" otherwise).
func (d *Device) Name() string { return d.name }

// Fail marks the device permanently failed: every arena and frame on it
// is unrecoverable, and all further allocation or restore attempts
// return ErrDeviceFailed. Occupancy accounting is left in place — a
// dead expander does not give its capacity back.
func (d *Device) Fail() { d.failed = true }

// Failed reports whether the device has been lost.
func (d *Device) Failed() bool { return d.failed }

// UsedBytes returns total device occupancy: data frames plus arena
// metadata.
func (d *Device) UsedBytes() int64 { return d.pool.UsedBytes() + d.metaBytes }

// CapacityBytes returns the device capacity.
func (d *Device) CapacityBytes() int64 { return d.capacity }

// Utilization returns occupancy in [0,1].
func (d *Device) Utilization() float64 {
	return float64(d.UsedBytes()) / float64(d.CapacityBytes())
}

// MetaBytes returns bytes consumed by arena metadata (checkpointed OS
// structures, as opposed to data pages).
func (d *Device) MetaBytes() int64 { return d.metaBytes }

// NewArena creates a named checkpoint arena on the device. Names must be
// unique among live arenas (checkpoint IDs provide this).
func (d *Device) NewArena(name string) (*Arena, error) {
	if d.failed {
		return nil, fmt.Errorf("%w: %s", ErrDeviceFailed, d.name)
	}
	if _, ok := d.arenas[name]; ok {
		return nil, fmt.Errorf("cxl: arena %q already exists", name)
	}
	a := &Arena{dev: d, name: name, objs: make([]arenaObj, 1)} // objs[0] = nil sentinel
	d.arenas[name] = a
	d.version++
	return a, nil
}

// Arena returns the named arena, or nil.
func (d *Device) Arena(name string) *Arena { return d.arenas[name] }

// Arenas returns the number of live arenas.
func (d *Device) Arenas() int { return len(d.arenas) }

// ForEachArena visits every live arena in name order (deterministic),
// for audits and invariant checkers.
func (d *Device) ForEachArena(fn func(*Arena)) {
	names := make([]string, 0, len(d.arenas))
	for name := range d.arenas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn(d.arenas[name])
	}
}

// RecoverStats reports what a Device.Recover pass reclaimed.
type RecoverStats struct {
	// Arenas is the number of torn (unsealed) arenas garbage-collected.
	Arenas int
	// MetaBytes is the arena metadata reclaimed.
	MetaBytes int64
	// FrameBytes is the data-frame capacity reclaimed.
	FrameBytes int64
}

// Total returns all bytes reclaimed.
func (s RecoverStats) Total() int64 { return s.MetaBytes + s.FrameBytes }

// Recover garbage-collects every unsealed arena on the device: the
// debris of checkpoints whose publishing node died before the seal.
// Sealed arenas are untouched. Iteration is name-sorted so a recovery
// pass is deterministic regardless of map order.
func (d *Device) Recover() RecoverStats {
	var torn []*Arena
	for _, a := range d.arenas {
		if !a.sealed {
			torn = append(torn, a)
		}
	}
	sort.Slice(torn, func(i, j int) bool { return torn[i].name < torn[j].name })
	var st RecoverStats
	for _, a := range torn {
		st.Arenas++
		st.MetaBytes += a.bytes
		st.FrameBytes += a.FrameBytes()
		a.Release()
	}
	return st
}

// charge reserves metadata bytes on the device.
func (d *Device) charge(n int64) error {
	if d.failed {
		return fmt.Errorf("%w: %s", ErrDeviceFailed, d.name)
	}
	if d.UsedBytes()+n > d.CapacityBytes() {
		return fmt.Errorf("%w: need %d more bytes, used %d of %d",
			ErrDeviceFull, n, d.UsedBytes(), d.CapacityBytes())
	}
	d.metaBytes += n
	return nil
}

type arenaObj struct {
	v    any
	size int64
}

// Arena is an offset-addressed allocation region on the CXL device
// holding one checkpoint's OS structures. It is append-only until
// released as a whole (checkpoints are immutable; reclaim drops the
// entire checkpoint).
//
// Publication is a two-phase commit: an arena starts staged and becomes
// restorable only after Seal. A node that crashes mid-checkpoint leaves
// a staged arena behind; Device.Recover garbage-collects it, so torn
// images never leak capacity or become restorable. The arena also owns
// the checkpoint's data frames (via TrackFrame) so both Release and
// Recover can reclaim them without help from the mechanism that died.
type Arena struct {
	dev    *Device
	name   string
	objs   []arenaObj
	bytes  int64
	frames []*memsim.Frame
	sealed bool
	closed bool
}

// Name returns the arena name (the checkpoint ID).
func (a *Arena) Name() string { return a.name }

// Bytes returns the metadata bytes held by this arena.
func (a *Arena) Bytes() int64 { return a.bytes }

// Len returns the number of allocated objects.
func (a *Arena) Len() int { return len(a.objs) - 1 }

// Alloc stores obj in the arena, charging size bytes against the device,
// and returns its offset. Sealed arenas are immutable: allocating into
// one is an error.
func (a *Arena) Alloc(obj any, size int64) (Offset, error) {
	if a.closed {
		return Nil, fmt.Errorf("cxl: arena %q is released", a.name)
	}
	if a.sealed {
		return Nil, fmt.Errorf("cxl: arena %q is sealed", a.name)
	}
	if size < 0 {
		panic("cxl: negative object size")
	}
	if err := a.dev.charge(size); err != nil {
		return Nil, err
	}
	a.objs = append(a.objs, arenaObj{v: obj, size: size})
	a.bytes += size
	a.dev.version++
	return Offset(len(a.objs) - 1), nil
}

// MustAlloc is Alloc for contexts where device exhaustion is a setup bug.
func (a *Arena) MustAlloc(obj any, size int64) Offset {
	off, err := a.Alloc(obj, size)
	if err != nil {
		panic(err)
	}
	return off
}

// Get dereferences an offset. It panics on Nil or out-of-range offsets:
// those are rebase bugs.
func (a *Arena) Get(off Offset) any {
	if a.closed {
		panic(fmt.Sprintf("cxl: Get on released arena %q", a.name))
	}
	if off == Nil || int(off) >= len(a.objs) {
		panic(fmt.Sprintf("cxl: invalid offset %d in arena %q (%d objects)", off, a.name, a.Len()))
	}
	return a.objs[off].v
}

// TrackFrame hands ownership of one reference on a data frame to the
// arena: Release (and Recover, for torn arenas) will Put it back to its
// pool.
func (a *Arena) TrackFrame(f *memsim.Frame) {
	if a.closed {
		panic(fmt.Sprintf("cxl: TrackFrame on released arena %q", a.name))
	}
	a.frames = append(a.frames, f)
	a.dev.version++
}

// ForEachFrame visits every frame reference the arena owns, in tracking
// order. A deduped frame shared by several images (or mapped at several
// addresses of one image) is visited once per reference.
func (a *Arena) ForEachFrame(fn func(*memsim.Frame)) {
	for _, f := range a.frames {
		fn(f)
	}
}

// FrameBytes returns the bytes of data frames the arena owns.
func (a *Arena) FrameBytes() int64 {
	return int64(len(a.frames)) * int64(a.dev.p.PageSize)
}

// Seal commits the arena: it becomes immutable and visible to Restore.
// Sealing is the last step of checkpoint publication; everything before
// it is recoverable staging.
func (a *Arena) Seal() error {
	if a.closed {
		return fmt.Errorf("cxl: Seal on released arena %q", a.name)
	}
	a.sealed = true
	return nil
}

// Sealed reports whether the arena completed its two-phase commit.
// Restore paths refuse unsealed arenas: they are torn images.
func (a *Arena) Sealed() bool { return a.sealed }

// Release frees the arena: its metadata accounting, its registration on
// the device, and every data frame handed to it via TrackFrame.
// Releasing twice is a no-op.
func (a *Arena) Release() {
	if a.closed {
		return
	}
	a.closed = true
	a.dev.metaBytes -= a.bytes
	a.dev.version++
	delete(a.dev.arenas, a.name)
	for _, f := range a.frames {
		f.Pool().Put(f)
	}
	a.frames = nil
	a.objs = nil
}

// Closed reports whether the arena has been released.
func (a *Arena) Closed() bool { return a.closed }

// Get is the typed dereference helper: Get[T](arena, off) panics if the
// object at off is not a T, which indicates a corrupted or mis-rebased
// reference.
func Get[T any](a *Arena, off Offset) T {
	v, ok := a.Get(off).(T)
	if !ok {
		panic(fmt.Sprintf("cxl: offset %d in arena %q holds %T, not %T", off, a.name, a.Get(off), v))
	}
	return v
}
