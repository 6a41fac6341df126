package cachesim

import "math/bits"

// Line identifies a cached unit: for PageLRU callers use the physical
// frame key (caches are physically indexed, so sharers hit on each
// other's lines); any uint64 key works.
type Line = uint64

// node is one entry in the intrusive LRU list. Entries live in a
// preallocated arena so steady-state operation performs no allocation.
type node struct {
	key        Line
	prev, next int32
}

const nilIdx = -1

// PageLRU is an exact-LRU fully-associative cache tracked at page
// granularity.
//
// Keys are found through a flat open-addressed index: a power-of-two
// table of node slots at most half full, probed linearly from a
// multiplicative hash of the full key. Deletion shifts the rest of the
// probe chain back instead of leaving tombstones, so the table never
// needs a rehash and Reset clears it in place. Hit or miss depends only
// on key equality and list order, never on where a key sits in the
// table.
type PageLRU struct {
	capacity int
	nodes    []node
	head     int32 // MRU
	tail     int32 // LRU
	free     []int32

	// index holds node index+1 per slot; 0 marks an empty slot.
	index []int32
	mask  uint64
	shift uint // 64 - log2(len(index))

	Hits   int64
	Misses int64
}

// NewPageLRU returns a cache holding capacityPages pages.
func NewPageLRU(capacityPages int) *PageLRU {
	if capacityPages <= 0 {
		panic("cachesim: capacity must be positive")
	}
	// At least twice the capacity keeps the load factor at or below 1/2.
	logSlots := bits.Len(uint(2*capacityPages - 1))
	return &PageLRU{
		capacity: capacityPages,
		head:     nilIdx,
		tail:     nilIdx,
		index:    make([]int32, 1<<logSlots),
		mask:     1<<logSlots - 1,
		shift:    uint(64 - logSlots),
	}
}

// Capacity returns the capacity in pages.
func (c *PageLRU) Capacity() int { return c.capacity }

// Len returns the number of resident pages.
func (c *PageLRU) Len() int { return len(c.nodes) - len(c.free) }

// home is key's preferred slot: the top bits of a Fibonacci hash.
func (c *PageLRU) home(key Line) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> c.shift
}

// find returns the slot holding key, or the empty slot ending its probe
// chain, and whether key was found.
func (c *PageLRU) find(key Line) (uint64, bool) {
	s := c.home(key)
	for {
		v := c.index[s]
		if v == 0 {
			return s, false
		}
		if c.nodes[v-1].key == key {
			return s, true
		}
		s = (s + 1) & c.mask
	}
}

// removeSlot empties slot s, shifting later entries of its probe chain
// back so every remaining key stays reachable from its home slot.
func (c *PageLRU) removeSlot(s uint64) {
	for j := (s + 1) & c.mask; ; j = (j + 1) & c.mask {
		v := c.index[j]
		if v == 0 {
			break
		}
		// The entry at j may fill the hole at s unless its home lies
		// cyclically in (s, j].
		if (j-c.home(c.nodes[v-1].key))&c.mask >= (j-s)&c.mask {
			c.index[s] = v
			s = j
		}
	}
	c.index[s] = 0
}

func (c *PageLRU) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != nilIdx {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nilIdx {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *PageLRU) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev = nilIdx
	n.next = c.head
	if c.head != nilIdx {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == nilIdx {
		c.tail = i
	}
}

// Access touches key, returning true on hit. On miss the key is
// installed, evicting the LRU page if the cache is full.
func (c *PageLRU) Access(key Line) bool {
	s, ok := c.find(key)
	if ok {
		if i := c.index[s] - 1; c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		c.Hits++
		return true
	}
	c.Misses++
	var i int32
	switch {
	case c.Len() >= c.capacity:
		// Reuse the LRU node. Removing its key may empty an index slot
		// earlier in key's probe chain, so probe again.
		i = c.tail
		c.unlink(i)
		old, _ := c.find(c.nodes[i].key)
		c.removeSlot(old)
		s, _ = c.find(key)
	case len(c.free) > 0:
		i = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	default:
		c.nodes = append(c.nodes, node{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i].key = key
	c.pushFront(i)
	c.index[s] = i + 1
	return false
}

// Contains reports residency without touching recency or counters.
func (c *PageLRU) Contains(key Line) bool {
	_, ok := c.find(key)
	return ok
}

// Invalidate removes key if resident (page migration, frame free).
func (c *PageLRU) Invalidate(key Line) {
	if s, ok := c.find(key); ok {
		i := c.index[s] - 1
		c.unlink(i)
		c.removeSlot(s)
		c.free = append(c.free, i)
	}
}

// Reset empties the cache and clears counters.
func (c *PageLRU) Reset() {
	if c.Len() > 0 {
		clear(c.index)
	}
	c.nodes = c.nodes[:0]
	c.free = c.free[:0]
	c.head, c.tail = nilIdx, nilIdx
	c.Hits, c.Misses = 0, 0
}

// Key packs an address-space id and page number into a cache key. The
// TLB (virtually indexed) uses this; the LLC is keyed by physical frame
// identity instead.
func Key(space uint32, page uint64) Line {
	return uint64(space)<<32 | (page & 0xffffffff)
}
