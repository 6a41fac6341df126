package cachesim

// mapLRU is the map-backed PageLRU this package used before the flat
// index, kept verbatim (renamed) as the reference model for the
// differential and fuzz tests.

// mapNode is one entry in the intrusive LRU list. Entries live in a
// preallocated arena so steady-state operation performs no allocation.
type mapNode struct {
	key        Line
	prev, next int32
}

const mapNil = -1

// mapLRU is an exact-LRU fully-associative cache tracked at page
// granularity.
type mapLRU struct {
	capacity int
	nodes    []mapNode
	head     int32 // MRU
	tail     int32 // LRU
	items    map[Line]int32
	free     []int32

	Hits   int64
	Misses int64
}

// newMapLRU returns a cache holding capacityPages pages.
func newMapLRU(capacityPages int) *mapLRU {
	if capacityPages <= 0 {
		panic("cachesim: capacity must be positive")
	}
	c := &mapLRU{
		capacity: capacityPages,
		head:     mapNil,
		tail:     mapNil,
		items:    make(map[Line]int32, capacityPages),
	}
	return c
}

// Capacity returns the capacity in pages.
func (c *mapLRU) Capacity() int { return c.capacity }

// Len returns the number of resident pages.
func (c *mapLRU) Len() int { return len(c.items) }

func (c *mapLRU) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != mapNil {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != mapNil {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *mapLRU) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev = mapNil
	n.next = c.head
	if c.head != mapNil {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == mapNil {
		c.tail = i
	}
}

// Access touches key, returning true on hit. On miss the key is
// installed, evicting the LRU page if the cache is full.
func (c *mapLRU) Access(key Line) bool {
	if i, ok := c.items[key]; ok {
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		c.Hits++
		return true
	}
	c.Misses++
	var i int32
	switch {
	case len(c.items) >= c.capacity:
		// Reuse the LRU slot.
		i = c.tail
		c.unlink(i)
		delete(c.items, c.nodes[i].key)
	case len(c.free) > 0:
		i = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	default:
		c.nodes = append(c.nodes, mapNode{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i].key = key
	c.pushFront(i)
	c.items[key] = i
	return false
}

// Contains reports residency without touching recency or counters.
func (c *mapLRU) Contains(key Line) bool {
	_, ok := c.items[key]
	return ok
}

// Invalidate removes key if resident (page migration, frame free).
func (c *mapLRU) Invalidate(key Line) {
	if i, ok := c.items[key]; ok {
		c.unlink(i)
		delete(c.items, key)
		c.free = append(c.free, i)
	}
}

// Reset empties the cache and clears counters.
func (c *mapLRU) Reset() {
	c.nodes = c.nodes[:0]
	c.free = c.free[:0]
	c.head, c.tail = mapNil, mapNil
	c.items = make(map[Line]int32, c.capacity)
	c.Hits, c.Misses = 0, 0
}
