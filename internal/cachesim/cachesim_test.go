package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageLRUBasics(t *testing.T) {
	c := NewPageLRU(2)
	if c.Access(1) {
		t.Fatal("cold access hit")
	}
	if !c.Access(1) {
		t.Fatal("second access missed")
	}
	c.Access(2)
	c.Access(3) // evicts 1 (LRU)
	if c.Contains(1) {
		t.Fatal("LRU entry not evicted")
	}
	if !c.Contains(2) || !c.Contains(3) {
		t.Fatal("resident entries lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Hits != 1 || c.Misses != 3 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestPageLRURecency(t *testing.T) {
	c := NewPageLRU(2)
	c.Access(1)
	c.Access(2)
	c.Access(1) // 2 becomes LRU
	c.Access(3) // evicts 2
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("recency not honoured")
	}
}

func TestPageLRUInvalidate(t *testing.T) {
	c := NewPageLRU(4)
	c.Access(1)
	c.Access(2)
	c.Invalidate(1)
	if c.Contains(1) || c.Len() != 1 {
		t.Fatal("invalidate broken")
	}
	c.Invalidate(99) // no-op
	// Freed slot is reusable.
	c.Access(3)
	c.Access(4)
	c.Access(5)
	if c.Len() != 4 {
		t.Fatalf("len = %d after refill", c.Len())
	}
}

func TestPageLRUCyclicThrash(t *testing.T) {
	// A cyclic sweep over a working set larger than the cache yields no
	// hits — the behaviour that exposes CXL latency for BFS/Bert.
	c := NewPageLRU(100)
	for sweep := 0; sweep < 3; sweep++ {
		for i := uint64(0); i < 150; i++ {
			c.Access(i)
		}
	}
	if c.Hits != 0 {
		t.Fatalf("cyclic thrash produced %d hits", c.Hits)
	}
	// A working set that fits produces hits on every revisit.
	c.Reset()
	for sweep := 0; sweep < 3; sweep++ {
		for i := uint64(0); i < 80; i++ {
			c.Access(i)
		}
	}
	if c.Hits != 160 || c.Misses != 80 {
		t.Fatalf("resident sweeps: hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestPageLRUReset(t *testing.T) {
	c := NewPageLRU(4)
	c.Access(1)
	c.Reset()
	if c.Len() != 0 || c.Hits != 0 || c.Misses != 0 {
		t.Fatal("reset incomplete")
	}
	if c.Access(1) {
		t.Fatal("stale entry after reset")
	}
}

// TestPageLRUMatchesReference cross-checks the intrusive implementation
// against a straightforward map+slice reference model.
func TestPageLRUMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cap = 16
		c := NewPageLRU(cap)
		var ref []uint64 // front = MRU
		contains := func(k uint64) int {
			for i, v := range ref {
				if v == k {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 500; op++ {
			k := uint64(rng.Intn(40))
			if rng.Intn(10) == 0 {
				c.Invalidate(k)
				if i := contains(k); i >= 0 {
					ref = append(ref[:i], ref[i+1:]...)
				}
				continue
			}
			got := c.Access(k)
			want := contains(k) >= 0
			if got != want {
				return false
			}
			if i := contains(k); i >= 0 {
				ref = append(ref[:i], ref[i+1:]...)
			}
			ref = append([]uint64{k}, ref...)
			if len(ref) > cap {
				ref = ref[:cap]
			}
			if c.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyPacking(t *testing.T) {
	k1 := Key(1, 0x1000)
	k2 := Key(2, 0x1000)
	k3 := Key(1, 0x1001)
	if k1 == k2 || k1 == k3 {
		t.Fatal("key collisions")
	}
}
