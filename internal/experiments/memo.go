package experiments

import (
	"container/list"
	"maps"
	"sync"

	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// Every served session, experiment leg and wlbench job calibrates
// before it replays, and most repeat inputs an earlier call already
// measured: a served-mix cycle repeats its sixteen specs, and every
// AzureBench job calibrates the same two functions. measureFunction is
// a pure function of (params, spec, scenario set): each call builds its
// own two-node cluster and seeds its own rng, and the process-wide
// memsim pool and token counters it advances decide no result
// (DESIGN.md §13). So MeasureFunction keeps one process-wide memo and
// returns the measurement an earlier call made for the same inputs.
//
// Apart from memsim's id counters, the memo is the simulator's only
// package-level mutable state. That is sound only because what it
// memoizes is pure: no caller can tell a hit from a fresh measurement
// except by how long it took. Tests that must exercise calibration
// itself call measureFunction, or empty the memo first.

// calibrationMemoEntries bounds the memo; past it the least recently
// used entry goes. In cxlserved the clients choose the keys (every
// distinct cxl_latency is a new Params), so the bound keeps a
// long-running server's memo from growing with its request history.
// One entry holding all seven scenarios measured about 2.5 KB of heap,
// so a full memo holds about 0.65 MB.
const calibrationMemoEntries = 256

// memoKey is everything measureFunction reads. params.Params and
// faas.Spec are comparable structs, so the key holds both whole: a
// field added to either is in the key with no digest to keep in step,
// and one that is not comparable fails to compile here. scens is the
// scenario list as a set, bit i for AllScenarios[i]: measureFunction
// reads the list only through its want set, so neither order nor
// duplicates can change a result.
type memoKey struct {
	p     params.Params
	spec  faas.Spec
	scens uint8
}

// scenarioSet returns scens as a memoKey set. A name outside
// AllScenarios sets no bit: measureFunction measures nothing for it.
func scenarioSet(scens []Scenario) uint8 {
	var set uint8
	for i, s := range AllScenarios {
		for _, t := range scens {
			if t == s {
				set |= 1 << i
				break
			}
		}
	}
	return set
}

// memoEntry is one memoized measurement, an element of the LRU list.
type memoEntry struct {
	key memoKey
	m   FnMeasurement
}

// calibrationMemo maps memoKeys to their measurements, evicting the
// least recently used past limit entries. One mutex guards it. Callers
// measure outside the lock, so two concurrent misses on one key both
// measure, identically, and the second put finds the first's entry.
// Errors are never stored.
type calibrationMemo struct {
	mu           sync.Mutex
	limit        int
	entries      map[memoKey]*list.Element // each Value a *memoEntry
	lru          list.List                 // most recently used first
	hits, misses uint64
}

func newCalibrationMemo(limit int) *calibrationMemo {
	return &calibrationMemo{limit: limit, entries: make(map[memoKey]*list.Element)}
}

// calibration is the process-wide memo MeasureFunction consults.
var calibration = newCalibrationMemo(calibrationMemoEntries)

// get returns a copy of k's measurement, counting a hit or a miss.
func (c *calibrationMemo) get(k memoKey) (*FnMeasurement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(e)
	return e.Value.(*memoEntry).m.clone(), true
}

// put stores a copy of m under k.
func (c *calibrationMemo) put(k memoKey, m *FnMeasurement) {
	if k != k {
		// A NaN field (a watermark, say) leaves k unequal to itself: no
		// lookup would ever find it, and delete could not remove it.
		return
	}
	v := m.clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		c.lru.MoveToFront(e)
		return
	}
	c.entries[k] = c.lru.PushFront(&memoEntry{key: k, m: *v})
	if c.lru.Len() > c.limit {
		old := c.lru.Remove(c.lru.Back()).(*memoEntry)
		delete(c.entries, old.key)
	}
}

// clone returns a copy of m that shares nothing mutable with it:
// Measure and kernel.FaultStats are plain values, so copying ByScen's
// entries copies everything.
func (m *FnMeasurement) clone() *FnMeasurement {
	c := *m
	c.ByScen = maps.Clone(m.ByScen)
	return &c
}

// MemoStats is a snapshot of the calibration memo: cumulative hits and
// misses since the process started, and the entries it holds now.
type MemoStats struct {
	Hits, Misses uint64
	Entries      int
}

// CalibrationMemoStats returns the process-wide calibration memo's
// counters.
func CalibrationMemoStats() MemoStats {
	c := calibration
	c.mu.Lock()
	defer c.mu.Unlock()
	return MemoStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len()}
}
