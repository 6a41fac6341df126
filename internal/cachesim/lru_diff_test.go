package cachesim

import (
	"math/rand"
	"testing"
)

// cacheKey builds a key shaped like memsim.Frame.CacheKey: pool id in
// the top byte, PFN above a 24-bit generation.
func cacheKey(pool uint8, pfn uint64, gen uint32) Line {
	return uint64(pool)<<56 | pfn<<24 | uint64(gen&0xffffff)
}

// lruPair drives the flat-index PageLRU and the map-backed reference
// with the same operations and fails on the first divergence.
type lruPair struct {
	t    testing.TB
	got  *PageLRU
	want *mapLRU

	hits, misses int // Access results over the whole run, across Resets
}

func newLRUPair(t testing.TB, capacity int) *lruPair {
	return &lruPair{t: t, got: NewPageLRU(capacity), want: newMapLRU(capacity)}
}

func (p *lruPair) access(key Line) {
	p.t.Helper()
	g, w := p.got.Access(key), p.want.Access(key)
	if g != w {
		p.t.Fatalf("Access(%#x) = %v, reference %v", key, g, w)
	}
	if g {
		p.hits++
	} else {
		p.misses++
	}
	p.counters()
}

func (p *lruPair) invalidate(key Line) {
	p.t.Helper()
	p.got.Invalidate(key)
	p.want.Invalidate(key)
	p.counters()
}

func (p *lruPair) contains(key Line) {
	p.t.Helper()
	if g, w := p.got.Contains(key), p.want.Contains(key); g != w {
		p.t.Fatalf("Contains(%#x) = %v, reference %v", key, g, w)
	}
	p.counters()
}

func (p *lruPair) reset() {
	p.t.Helper()
	p.got.Reset()
	p.want.Reset()
	p.counters()
}

func (p *lruPair) counters() {
	p.t.Helper()
	if p.got.Len() != p.want.Len() || p.got.Hits != p.want.Hits || p.got.Misses != p.want.Misses {
		p.t.Fatalf("len/hits/misses = %d/%d/%d, reference %d/%d/%d",
			p.got.Len(), p.got.Hits, p.got.Misses, p.want.Len(), p.want.Hits, p.want.Misses)
	}
}

// deep compares the full recency order and checks the index invariants.
func (p *lruPair) deep() {
	p.t.Helper()
	i, j := p.got.head, p.want.head
	for i != nilIdx && j != mapNil {
		if p.got.nodes[i].key != p.want.nodes[j].key {
			p.t.Fatalf("recency order differs: %#x vs reference %#x", p.got.nodes[i].key, p.want.nodes[j].key)
		}
		i, j = p.got.nodes[i].next, p.want.nodes[j].next
	}
	if i != nilIdx || j != mapNil {
		p.t.Fatal("recency lists differ in length")
	}
	checkIndex(p.t, p.got)
}

// checkIndex verifies the flat index: it holds exactly one slot per
// resident node, each pointing at a live node, and no empty slot lies
// between a key's home slot and the slot holding it.
func checkIndex(t testing.TB, c *PageLRU) {
	t.Helper()
	used := 0
	for s, v := range c.index {
		if v == 0 {
			continue
		}
		used++
		key := c.nodes[v-1].key
		for h := c.home(key); h != uint64(s); h = (h + 1) & c.mask {
			if c.index[h] == 0 {
				t.Fatalf("key %#x at slot %d unreachable: empty slot %d after its home", key, s, h)
			}
		}
		if got, ok := c.find(key); !ok || got != uint64(s) {
			t.Fatalf("key %#x at slot %d, find says %d/%v", key, s, got, ok)
		}
	}
	if used != c.Len() {
		t.Fatalf("index holds %d keys, cache %d", used, c.Len())
	}
}

// keySource draws keys from a universe sized to the capacity, so a run
// sees hits, misses, evictions and re-references of evicted keys.
type keySource struct {
	rng  *rand.Rand
	tlb  bool
	n    int      // distinct frames or pages
	gens []uint32 // CacheKey generation per frame
}

func (k *keySource) next() Line {
	i := k.rng.Intn(k.n)
	if k.tlb {
		asid := uint32(1 + i%4)
		vpn := uint64(i / 4)
		if i%5 == 0 {
			vpn |= 0xfff00000 // high user-space pages
		}
		return Key(asid, vpn)
	}
	return cacheKey(uint8(1+i%3), uint64(i/3), k.gens[i])
}

// bump frees and reallocates a frame: its key changes generation, and
// the old key is invalidated half the time (the kernel drops a freed
// frame's lines on migration; otherwise they age out).
func (k *keySource) bump(p *lruPair) {
	i := k.rng.Intn(k.n)
	if k.rng.Intn(2) == 0 {
		p.invalidate(cacheKey(uint8(1+i%3), uint64(i/3), k.gens[i]))
	}
	k.gens[i]++
}

func runDifferential(t *testing.T, capacity int, tlb bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := capacity + capacity/2 + 3
	src := &keySource{rng: rng, tlb: tlb, n: n, gens: make([]uint32, n)}
	p := newLRUPair(t, capacity)
	ops := max(8*capacity, 4000)
	every := max(ops/32, 1)
	for op := 1; op <= ops; op++ {
		switch r := rng.Intn(1000); {
		case r < 800:
			p.access(src.next())
		case r < 900:
			p.invalidate(src.next())
		case r < 960:
			p.contains(src.next())
		case r < 999:
			if !tlb {
				src.bump(p)
			} else {
				p.access(src.next())
			}
		default:
			p.reset()
		}
		if capacity <= 16 || op%every == 0 {
			p.deep()
		}
	}
	p.deep()
	if p.hits == 0 || p.misses == 0 {
		t.Fatalf("degenerate run: hits=%d misses=%d", p.hits, p.misses)
	}
}

func TestPageLRUDifferential(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 1536, 16384} {
		for _, tlb := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				if testing.Short() && capacity > 2000 && seed > 1 {
					continue
				}
				runDifferential(t, capacity, tlb, seed*int64(capacity+1))
			}
		}
	}
}

// keysWithHome returns n CacheKey-shaped keys whose home slot in c is
// slot.
func keysWithHome(c *PageLRU, slot uint64, n int) []Line {
	var keys []Line
	for pfn := uint64(0); len(keys) < n; pfn++ {
		if k := cacheKey(7, pfn, 0); c.home(k) == slot {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestPageLRUWrappedChains builds probe chains that run off the end of
// the table and back to slot 0, then removes keys from the middle of
// them by Invalidate and by LRU eviction.
func TestPageLRUWrappedChains(t *testing.T) {
	p := newLRUPair(t, 7) // 16 slots
	mask := p.got.mask
	last := keysWithHome(p.got, mask, 4) // a chain from the last slot
	first := keysWithHome(p.got, 0, 2)   // homes inside the wrapped run
	all := append(append([]Line{}, last...), first...)
	for _, k := range all {
		p.access(k)
	}
	p.deep()
	// last[0] sits in the last slot; the rest wrapped to 0, 1, 2; the
	// two keys homed at 0 follow at 3 and 4.
	for i, k := range all {
		want := (mask + uint64(i)) & mask
		if s, ok := p.got.find(k); !ok || s != want {
			t.Fatalf("key %d at slot %d, want %d", i, s, want)
		}
	}

	// Invalidate from the middle of the wrapped chain: everything after
	// it shifts back across the wrap point.
	p.invalidate(last[1])
	p.deep()
	for _, k := range all {
		p.contains(k)
	}

	// Evict from the middle: make last[2] the LRU entry, then fill.
	for _, k := range []Line{last[0], last[3], first[0], first[1]} {
		p.access(k)
	}
	fill := []Line{cacheKey(9, 1, 0), cacheKey(9, 2, 0), cacheKey(9, 3, 0)}
	p.access(fill[0])
	p.access(fill[1]) // 7 resident keys
	p.deep()
	if p.got.nodes[p.got.tail].key != last[2] {
		t.Fatal("test setup: last[2] is not the LRU entry")
	}
	p.access(fill[2]) // evicts last[2] from slot 0
	p.deep()
	for _, k := range all {
		p.contains(k)
	}

	// Remove the chain head in the last slot; the wrapped entries must
	// not move back past their homes.
	p.invalidate(last[0])
	p.deep()
	for _, k := range append(all, fill...) {
		p.access(k)
		p.deep()
	}
}

// TestPageLRUSteadyStateAllocs checks that a warm cache allocates
// nothing on hits, misses with eviction, invalidation, or Reset.
func TestPageLRUSteadyStateAllocs(t *testing.T) {
	for _, capacity := range []int{1536, 16384} {
		c := NewPageLRU(capacity)
		span := uint64(2 * capacity)
		var k uint64
		work := func() {
			for i := 0; i < 1000; i++ {
				c.Access(cacheKey(1, k%span, 0))
				k += 7
			}
			c.Invalidate(cacheKey(1, k%span, 0))
		}
		work()
		if n := testing.AllocsPerRun(20, work); n != 0 {
			t.Errorf("capacity %d: Access/Invalidate allocate %.1f times per run", capacity, n)
		}
		refill := func() {
			c.Reset()
			for i := 0; i < capacity; i++ {
				c.Access(Key(1, uint64(i)))
			}
		}
		refill()
		if n := testing.AllocsPerRun(5, refill); n != 0 {
			t.Errorf("capacity %d: Reset and refill allocate %.1f times per run", capacity, n)
		}
	}
}

// FuzzPageLRU interprets each input byte as one operation on a small
// cache and checks every step against the map-backed reference.
func FuzzPageLRU(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x01, 0xa1, 0x04, 0x01})
	f.Add([]byte{0x82, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0xb2, 0x16, 0x17, 0x10})
	f.Add([]byte{0x43, 0x00, 0x1f, 0x0f, 0xaf, 0xc0, 0xe0, 0x01, 0x1f})
	f.Add([]byte{0x32, 0x30, 0x31, 0x37, 0x43, 0x30}) // deletes from a chain that wraps
	caps := []int{1, 2, 3, 7, 16, 33}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// First byte: capacity and key shape.
		tlb := data[0]&0x40 != 0
		p := newLRUPair(t, caps[int(data[0]&0x3f)%len(caps)])
		for _, b := range data[1:] {
			// Low 5 bits pick one of 32 keys; top 3 bits the operation.
			i := uint64(b & 0x1f)
			key := cacheKey(uint8(1+i&1), (i>>1)&7, uint32(i>>4))
			if tlb {
				key = Key(uint32(i&3), i>>2|(i&1)<<31)
			}
			switch b >> 5 {
			case 5:
				p.invalidate(key)
			case 6:
				p.contains(key)
			case 7:
				if i == 0 {
					p.reset()
				} else {
					p.access(key)
				}
			default:
				p.access(key)
			}
			p.deep()
		}
	})
}
