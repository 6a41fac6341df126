package cxl

import (
	"errors"
	"math/rand"
	"testing"

	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
)

// listIndex is the dedup index this package used before keying entries
// by token: buckets of entries under the FNV-1a hash of the token,
// filtered for staleness on every lookup. It is kept as the reference
// model for TestDedupIndexMatchesListIndex; alloc is the old
// AllocToken body.
type listIndex struct {
	pool    *memsim.Pool
	buckets map[uint64][]listEntry
	hits    int64
	misses  int64
}

type listEntry struct {
	key   uint64
	token uint64
	frame *memsim.Frame
}

func fnv1aToken(tok uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= (tok >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h
}

func (x *listIndex) alloc(tok uint64) (*memsim.Frame, bool, error) {
	h := fnv1aToken(tok)
	entries := x.buckets[h]
	live := entries[:0]
	var hit *memsim.Frame
	for _, e := range entries {
		if e.frame.Refs() <= 0 || e.frame.CacheKey() != e.key || e.frame.Data != e.token {
			continue // stale: frame freed, reused, or rewritten
		}
		live = append(live, e)
		if hit == nil && e.token == tok {
			hit = e.frame
		}
	}
	if hit != nil {
		x.buckets[h] = live
		x.hits++
		return hit.Get(), true, nil
	}
	f, err := x.pool.Alloc()
	if err != nil {
		if len(live) != len(entries) {
			x.buckets[h] = live
		}
		return nil, false, err
	}
	f.Data = tok
	x.buckets[h] = append(live, listEntry{key: f.CacheKey(), token: f.Data, frame: f})
	x.misses++
	return f, false, nil
}

// TestDedupIndexMatchesListIndex drives the device's index and the
// list-valued reference with the same allocations, frees, content
// rewrites (including back to an indexed token) and pool exhaustion,
// and requires the same hit, frame, error and index size at every step.
func TestDedupIndexMatchesListIndex(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := params.Default()
		p.CXLBytes = 16 * int64(p.PageSize) // small enough to run out
		d := NewDevice(p)
		ref := &listIndex{
			pool:    memsim.NewPool("ref", memsim.CXL, p.CXLBytes, p.PageSize),
			buckets: make(map[uint64][]listEntry),
		}
		type pair struct{ got, want *memsim.Frame }
		var held []pair // one reference each, on both sides
		for step := 0; step < 2000; step++ {
			tok := uint64(1 + rng.Intn(24))
			switch r := rng.Intn(10); {
			case r < 6:
				gf, ghit, gerr := d.AllocToken(tok)
				wf, whit, werr := ref.alloc(tok)
				if ghit != whit || (gerr == nil) != (werr == nil) {
					t.Fatalf("seed %d step %d: AllocToken(%d) hit=%v err=%v, reference hit=%v err=%v",
						seed, step, tok, ghit, gerr, whit, werr)
				}
				if gerr != nil {
					if !errors.Is(gerr, memsim.ErrOutOfMemory) {
						t.Fatalf("seed %d step %d: unexpected error %v", seed, step, gerr)
					}
					break
				}
				if gf.PFN() != wf.PFN() {
					t.Fatalf("seed %d step %d: AllocToken(%d) pfn %d, reference %d", seed, step, tok, gf.PFN(), wf.PFN())
				}
				held = append(held, pair{gf, wf})
			case r < 9 && len(held) > 0:
				i := rng.Intn(len(held))
				d.Pool().Put(held[i].got)
				ref.pool.Put(held[i].want)
				held = append(held[:i], held[i+1:]...)
			case len(held) > 0:
				// Rewrite a frame's content, sometimes to a token the
				// index already holds.
				h := held[rng.Intn(len(held))]
				h.got.Data, h.want.Data = tok, tok
			}
			if d.Dedup.Hits.Value() != ref.hits || d.Dedup.Misses.Value() != ref.misses {
				t.Fatalf("seed %d step %d: hits/misses %d/%d, reference %d/%d",
					seed, step, d.Dedup.Hits.Value(), d.Dedup.Misses.Value(), ref.hits, ref.misses)
			}
			if d.DedupIndexLen() != len(ref.buckets) {
				t.Fatalf("seed %d step %d: index len %d, reference %d", seed, step, d.DedupIndexLen(), len(ref.buckets))
			}
		}
		if d.Dedup.Hits.Value() == 0 || d.Dedup.Misses.Value() == 0 {
			t.Fatalf("seed %d: degenerate run: hits %d misses %d", seed, d.Dedup.Hits.Value(), d.Dedup.Misses.Value())
		}
	}
}
