package memsim

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Kind distinguishes pool placement, which determines access latency.
type Kind int

const (
	// Local is node-attached DRAM.
	Local Kind = iota
	// CXL is the shared fabric-attached device memory.
	CXL
)

func (k Kind) String() string {
	if k == CXL {
		return "cxl"
	}
	return "local"
}

// ErrOutOfMemory is returned when a pool has no free frames.
var ErrOutOfMemory = errors.New("memsim: out of memory")

// Frame is one physical page frame.
type Frame struct {
	pool *Pool
	pfn  int // index within pool: the page frame number

	// Data is the content token. Equal tokens mean identical page
	// contents. Zero means a zeroed page.
	Data uint64

	// refs counts mappings/owners. Frames are freed when refs drops to
	// zero via Pool.Put.
	refs int

	// gen increments on every allocation so cache keys from a previous
	// life of the frame never hit after reuse.
	gen uint32
}

// CacheKey returns the frame's physical identity for cache models:
// caches are physically indexed, so sharers of a frame (page cache,
// CoW-shared pages, CXL checkpoint pages) hit on each other's lines.
func (f *Frame) CacheKey() uint64 {
	return uint64(f.pool.id)<<56 | uint64(f.pfn)<<24 | uint64(f.gen&0xffffff)
}

// PFN returns the frame's page frame number within its pool. For CXL
// frames this is the device-relative frame number that checkpointed page
// tables store after rebasing.
func (f *Frame) PFN() int { return f.pfn }

// Pool returns the owning pool.
func (f *Frame) Pool() *Pool { return f.pool }

// Kind returns the placement kind of the frame's pool.
func (f *Frame) Kind() Kind { return f.pool.kind }

// Refs returns the current reference count.
func (f *Frame) Refs() int { return f.refs }

// Get increments the frame's reference count (a new sharer).
func (f *Frame) Get() *Frame {
	if f.refs <= 0 {
		panic("memsim: Get on free frame")
	}
	f.refs++
	f.pool.version++
	return f
}

// poolIDs hands out unique pool identifiers for cache keys. Pools are
// built concurrently when experiment legs fan out (DESIGN.md §13), so
// the counter must be atomic; the ids themselves never cross legs.
var poolIDs atomic.Uint32

// chunkFrames is how many frames a pool builds at once, on the first
// touch of any frame in the chunk: 16 MiB of 4 KiB pages.
const chunkFrames = 1 << 12

// Pool is a fixed-capacity set of frames. Frames are built in chunks
// when first touched, so a pool costs memory in proportion to the pages
// a simulation uses, not to its configured capacity.
type Pool struct {
	name     string
	id       uint32
	kind     Kind
	pageSize int

	capacity int
	chunks   [][]Frame // nil until a frame in the chunk is touched

	// Alloc takes the most recently freed pfn first, then the lowest
	// never-allocated one. That is the pop order of a stack pre-filled
	// high to low, so PFNs, and the cache keys built from them, are the
	// same as if every frame had been built up front.
	free []int // LIFO of freed pfns
	next int   // lowest never-allocated pfn

	used    int
	version uint64
}

// NewPool creates a pool with capacity bytes of pageSize pages.
func NewPool(name string, kind Kind, capacityBytes int64, pageSize int) *Pool {
	if pageSize <= 0 || capacityBytes <= 0 {
		panic("memsim: invalid pool geometry")
	}
	n := int(capacityBytes / int64(pageSize))
	return &Pool{
		name: name, id: poolIDs.Add(1), kind: kind, pageSize: pageSize,
		capacity: n,
		chunks:   make([][]Frame, (n+chunkFrames-1)/chunkFrames),
	}
}

// frame returns the frame with an in-range pfn, building its chunk on
// first touch.
func (p *Pool) frame(pfn int) *Frame {
	c := p.chunks[pfn/chunkFrames]
	if c == nil {
		base := pfn / chunkFrames * chunkFrames
		c = make([]Frame, min(chunkFrames, p.capacity-base))
		for i := range c {
			c[i].pool = p
			c[i].pfn = base + i
		}
		p.chunks[pfn/chunkFrames] = c
	}
	return &c[pfn%chunkFrames]
}

// Name returns the pool name.
func (p *Pool) Name() string { return p.name }

// Kind returns the pool kind.
func (p *Pool) Kind() Kind { return p.kind }

// PageSize returns the frame size in bytes.
func (p *Pool) PageSize() int { return p.pageSize }

// CapacityPages returns the total number of frames.
func (p *Pool) CapacityPages() int { return p.capacity }

// UsedPages returns the number of allocated frames.
func (p *Pool) UsedPages() int { return p.used }

// UsedBytes returns allocated bytes.
func (p *Pool) UsedBytes() int64 { return int64(p.used) * int64(p.pageSize) }

// FreePages returns the number of free frames.
func (p *Pool) FreePages() int { return p.capacity - p.used }

// Utilization returns used/capacity in [0,1].
func (p *Pool) Utilization() float64 {
	return float64(p.used) / float64(p.capacity)
}

// Version counts allocations and reference-count changes on the pool's
// frames. Observers that derive a value from frame refcounts can cache
// it until the version moves.
func (p *Pool) Version() uint64 { return p.version }

// Alloc returns a zeroed frame with refcount 1.
func (p *Pool) Alloc() (*Frame, error) {
	var pfn int
	switch {
	case len(p.free) > 0:
		pfn = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
	case p.next < p.capacity:
		pfn = p.next
		p.next++
	default:
		return nil, fmt.Errorf("%w: pool %q (%d pages)", ErrOutOfMemory, p.name, p.capacity)
	}
	f := p.frame(pfn)
	f.Data = 0
	f.refs = 1
	f.gen++
	p.used++
	p.version++
	return f, nil
}

// MustAlloc is Alloc for contexts where exhaustion is a setup bug.
func (p *Pool) MustAlloc() *Frame {
	f, err := p.Alloc()
	if err != nil {
		panic(err)
	}
	return f
}

// Put drops one reference; the frame is returned to the free list when
// the count reaches zero.
func (p *Pool) Put(f *Frame) {
	if f.pool != p {
		panic("memsim: Put on foreign frame")
	}
	if f.refs <= 0 {
		panic("memsim: Put on free frame")
	}
	f.refs--
	p.version++
	if f.refs == 0 {
		p.used--
		p.free = append(p.free, f.pfn)
	}
}

// Frame returns the frame with the given pfn. It panics on a pfn outside
// the pool — dereferencing a dangling rebased pointer is a checkpoint
// format bug the tests must surface loudly.
func (p *Pool) Frame(pfn int) *Frame {
	if pfn < 0 || pfn >= p.capacity {
		panic(fmt.Sprintf("memsim: pfn %d out of range for pool %q", pfn, p.name))
	}
	return p.frame(pfn)
}

// Copy duplicates src's contents into dst (token copy).
func Copy(dst, src *Frame) { dst.Data = src.Data }

// tokenCounter hands out unique non-zero content tokens. Like poolIDs
// it is shared by concurrently-running experiment legs, so it must be
// atomic. Only uniqueness matters: dedup compares tokens for equality,
// and equal tokens come from copies, never from counter coincidence,
// so the interleaving of counter values across legs cannot change any
// leg's observable behaviour.
var tokenCounter atomic.Uint64

// NewToken returns a fresh unique content token, modelling a distinct
// page content produced by a store.
func NewToken() uint64 {
	return tokenCounter.Add(1)
}
