package porter

import (
	"sort"

	"cxlfork/internal/des"
	"cxlfork/internal/rfork"
)

// ObjectStore is CXLporter's distributed store of checkpoints on the
// CXL fabric (§5): it maps <user, function> tuples to checkpoint IDs
// (CIDs) of CXL-stored checkpoints. The store holds one reference on
// every registered image and is responsible for reclaiming checkpoints
// under CXL memory pressure. Alongside each image it tracks restore
// recency and frequency — the signals the capacity manager's LRU and
// cost-benefit eviction policies rank candidates by.
type ObjectStore struct {
	entries map[storeKey]*storeEntry
}

type storeKey struct {
	user, function string
}

type storeEntry struct {
	img         rfork.Image
	lastRestore des.Time
	restores    int64
}

// Entry is one registered checkpoint with its restore statistics, as
// exposed to eviction policies and diagnostics.
type Entry struct {
	User, Function string
	Image          rfork.Image
	// LastRestore is the virtual time of the most recent restore served
	// from this checkpoint (zero if never restored).
	LastRestore des.Time
	// Restores counts restores served from this checkpoint.
	Restores int64
}

// NewObjectStore returns an empty store.
func NewObjectStore() *ObjectStore {
	return &ObjectStore{entries: make(map[storeKey]*storeEntry)}
}

// Put registers an image under <user, function>, replacing (and
// releasing) any previous entry. The store takes ownership of the
// caller's reference. Restore statistics restart from zero: a
// re-published checkpoint earns its retention anew.
func (s *ObjectStore) Put(user, function string, img rfork.Image) {
	k := storeKey{user, function}
	if old, ok := s.entries[k]; ok {
		old.img.Release()
	}
	s.entries[k] = &storeEntry{img: img}
}

// Get queries the CID for <user, function>.
func (s *ObjectStore) Get(user, function string) (rfork.Image, bool) {
	e, ok := s.entries[storeKey{user, function}]
	if !ok {
		return nil, false
	}
	return e.img, true
}

// Touch records a restore served from <user, function> at virtual time
// now, feeding the LRU and cost-benefit eviction policies.
func (s *ObjectStore) Touch(user, function string, now des.Time) {
	if e, ok := s.entries[storeKey{user, function}]; ok {
		e.lastRestore = now
		e.restores++
	}
}

// Entries returns every registered checkpoint with its restore
// statistics, sorted by <user, function> for deterministic iteration.
func (s *ObjectStore) Entries() []Entry {
	out := make([]Entry, 0, len(s.entries))
	for k, e := range s.entries {
		out = append(out, Entry{
			User: k.user, Function: k.function,
			Image: e.img, LastRestore: e.lastRestore, Restores: e.restores,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].Function < out[j].Function
	})
	return out
}

// Len returns the number of registered checkpoints.
func (s *ObjectStore) Len() int { return len(s.entries) }

// Reclaim drops the checkpoint for <user, function>, releasing the
// store's reference (live clones keep theirs).
func (s *ObjectStore) Reclaim(user, function string) bool {
	k := storeKey{user, function}
	e, ok := s.entries[k]
	if !ok {
		return false
	}
	e.img.Release()
	delete(s.entries, k)
	return true
}

// dedupAware is implemented by images whose device accounting
// distinguishes exclusive from dedup-shared frames (core.Checkpoint and
// the capacity manager's replay images).
type dedupAware interface {
	ReclaimableBytes() int64
}

// reclaimEstimate predicts the device occupancy delta releasing the
// store's reference on img would produce right now. An image pinned by
// live clones or in-flight restores (extra references) frees nothing
// yet; a dedup-aware image frees only metadata plus its exclusive
// frames; other mechanisms free their declared footprint.
func reclaimEstimate(img rfork.Image) int64 {
	if img.Refs() > 1 {
		return 0
	}
	if r, ok := img.(dedupAware); ok {
		return r.ReclaimableBytes()
	}
	return img.CXLBytes()
}
