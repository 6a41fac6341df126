package cxl

import (
	"fmt"

	"cxlfork/internal/memsim"
)

// Content-addressed frame dedup cache.
//
// Serverless parents are overwhelmingly alike: every warm instance of a
// function holds the same library text, the same interpreter heap, and
// large runs of zeroed pages. Checkpointing each instance as if its
// pages were unique wastes both device capacity and fabric write
// bandwidth. The device therefore keeps an index from page content (the
// content token) to the live frame already holding that content; a
// checkpoint page write that hits the index takes an extra reference on
// the existing frame instead of allocating and NT-storing a new one.
//
// Index entries are validated lazily on lookup: an entry is only usable
// while its frame is still live (refs > 0), still the same allocation
// (CacheKey embeds the per-allocation generation, so a freed-and-reused
// frame never aliases), and still holds the indexed content. A stale
// entry is replaced at its token's next lookup, so the index needs no
// teardown hooks in Arena.Release or Recover. A token gets a new entry
// only when it has no live one, so one entry per token suffices.

// dedupEntry records the frame indexed under a token. key is the
// frame's CacheKey at registration time: if the frame has since been
// freed and reallocated, the key no longer matches and the entry is
// stale. A zero entry has no frame: its stale frame was dropped.
type dedupEntry struct {
	key   uint64
	frame *memsim.Frame
}

// DedupAlloc returns a device frame holding src's contents: either an
// existing live frame with identical content (hit — one extra reference
// is taken, no data moves on the fabric) or a freshly allocated copy
// (miss). The boolean reports a hit. The caller owns one reference
// either way and normally hands it to an Arena via TrackFrame.
func (d *Device) DedupAlloc(src *memsim.Frame) (*memsim.Frame, bool, error) {
	return d.AllocToken(src.Data)
}

// AllocToken is DedupAlloc addressed by content token instead of source
// frame: it returns a device frame holding tok, deduped against the
// index when an identical live frame exists. Checkpoint replays (the
// capacity manager's re-publish path) use it to rebuild an evicted
// image's frames from a recorded token list — re-deduping against any
// surviving twins — without a live parent address space to copy from.
func (d *Device) AllocToken(tok uint64) (*memsim.Frame, bool, error) {
	if d.failed {
		return nil, false, fmt.Errorf("%w: %s", ErrDeviceFailed, d.name)
	}
	e, indexed := d.dedup[tok]
	if f := e.frame; f != nil && f.Refs() > 0 && f.CacheKey() == e.key && f.Data == tok {
		d.Dedup.Hits.Inc()
		d.Dedup.BytesSaved.Add(int64(d.p.PageSize))
		return f.Get(), true, nil
	}
	f, err := d.pool.Alloc()
	if err != nil {
		if indexed {
			d.dedup[tok] = dedupEntry{}
		}
		return nil, false, err
	}
	f.Data = tok
	d.dedup[tok] = dedupEntry{key: f.CacheKey(), frame: f}
	d.Dedup.Misses.Inc()
	return f, false, nil
}

// BuildArena publishes a checkpoint from a recorded token list in one
// step: it stages arena name, allocates one frame per token through
// AllocToken (in order), charges metaBytes of metadata, and seals the
// arena. Any failure releases the staged arena and returns the error,
// leaving occupancy as it was. Replica placement and the capacity
// manager's re-publication both build their arenas this way.
func (d *Device) BuildArena(name string, tokens []uint64, metaBytes int64) (*Arena, error) {
	a, err := d.NewArena(name)
	if err != nil {
		return nil, err
	}
	for _, tok := range tokens {
		f, _, err := d.AllocToken(tok)
		if err != nil {
			a.Release()
			return nil, err
		}
		a.TrackFrame(f)
	}
	if _, err := a.Alloc("token-meta", metaBytes); err != nil {
		a.Release()
		return nil, err
	}
	if err := a.Seal(); err != nil {
		a.Release()
		return nil, err
	}
	return a, nil
}

// DedupIndexLen reports the number of tokens ever indexed (diagnostics).
func (d *Device) DedupIndexLen() int { return len(d.dedup) }
