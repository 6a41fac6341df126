package des

// Lane-parallel copy scheduling.
//
// Checkpoint/restore pipelines are embarrassingly parallel per VMA or
// page-table leaf (CRIU itself shards page dumps across workers), but
// the copies all funnel through a shared medium: the CXL fabric admits
// only a few concurrent full-rate streams, and local DRAM has a fixed
// number of memory-controller streams. Pipeline models exactly that
// two-level structure: shards run on a fixed pool of worker lanes, and
// each shard's unit copies (pages, records) contend on a fixed pool of
// streams. Lanes therefore scale sub-linearly: past the stream count,
// extra lanes only overlap metadata work.
//
// The simulation runs on a private engine with deterministic FIFO
// tie-breaking, so a makespan is a pure function of its inputs — the
// same shard list always yields the same virtual duration, which the
// golden determinism tests rely on.

// Shard is one lane-schedulable unit of checkpoint/restore work: the
// state belonging to one VMA leaf, page-table leaf, or page batch.
type Shard struct {
	// Setup is lane-local work not subject to stream contention:
	// rebasing PTEs, attaching a leaf, encoding records.
	Setup Time
	// Units is the number of stream-limited unit copies the shard
	// performs (pages written to the device, records streamed).
	Units int
	// UnitCost is the full-rate cost of one unit copy.
	UnitCost Time
}

// Serial returns the shard's cost on a single uncontended lane.
func (s Shard) Serial() Time { return s.Setup + Time(s.Units)*s.UnitCost }

// UniformShards splits n uniform unit operations into lane shards of at
// most chunk units each, charging setupPerUnit of lane-local work and
// unitCost of stream-limited copy per unit. It is the shard builder for
// flat page runs that have no natural per-VMA or per-leaf grouping
// (CRIU page dumps, Mitosis shadow copies).
func UniformShards(n, chunk int, setupPerUnit, unitCost Time) []Shard {
	if chunk < 1 {
		chunk = 1
	}
	var shards []Shard
	for n > 0 {
		u := n
		if u > chunk {
			u = chunk
		}
		shards = append(shards, Shard{Setup: Time(u) * setupPerUnit, Units: u, UnitCost: unitCost})
		n -= u
	}
	return shards
}

// ShardObserver receives one callback per shard as the pipeline
// schedules it: the shard's index in the input slice, the lane it ran
// on, and its [start, end) interval relative to the pipeline's time
// zero. Observers are passive — they are invoked with the same values
// whether or not anyone listens, so a nil observer and a recording
// observer yield byte-identical makespans. The tracer uses this to
// render per-lane shard spans.
type ShardObserver func(shard, lane int, start, end Time)

// Pipeline returns the virtual duration of executing shards on `lanes`
// worker lanes whose unit copies share `streams` full-rate streams,
// reporting each shard's interval to obs when obs is non-nil. One lane
// returns the exact serial sum without running the event loop —
// provably equal to makespan(1, ...) (see tests) and byte-identical to
// the sequential accounting that predates lanes — with the shards laid
// out back-to-back on lane 0. More lanes run the contention model.
func Pipeline(lanes, streams int, dispatch Time, shards []Shard, obs ShardObserver) Time {
	if lanes > 1 {
		return makespan(lanes, streams, dispatch, shards, obs)
	}
	var total Time
	for i, s := range shards {
		d := s.Serial()
		if obs != nil {
			obs(i, 0, total, total+d)
		}
		total += d
	}
	return total
}

// streamChunk is how many unit copies a lane pushes through one stream
// grant. Chunking keeps the event count bounded (a 630 MB checkpoint is
// ~160k pages) while still interleaving lanes finely enough that stream
// contention, not grant granularity, dominates the makespan.
const streamChunk = 32

// makespan is the event-loop model behind Pipeline. Shards are
// dispatched FIFO in slice order; each occupies one lane for its setup
// plus its (possibly queued) unit copies. dispatch is the per-shard
// work-queue handoff cost, charged only when lanes > 1 — a single lane
// runs the shards inline, which keeps the one-lane makespan exactly
// equal to the serial sum. Lane identity is bookkeeping layered over
// the lane resource — the lowest free lane is marked busy when a
// shard's grant fires and freed when its last unit copy drains,
// immediately before the resource release, so FIFO handoff reuses the
// lowest-numbered lane. The event pattern is identical with or without
// an observer, so the makespan is too.
func makespan(lanes, streams int, dispatch Time, shards []Shard, obs ShardObserver) Time {
	if len(shards) == 0 {
		return 0
	}
	if lanes < 1 {
		lanes = 1
	}
	if streams < 1 {
		streams = 1
	}
	eng := NewEngine()
	laneRes := NewResource(eng, lanes)
	streamRes := NewResource(eng, streams)
	laneBusy := make([]bool, lanes)
	for i, sh := range shards {
		i, sh := i, sh
		laneRes.Acquire(func(start Time) {
			lane := 0
			for laneBusy[lane] {
				lane++
			}
			laneBusy[lane] = true
			setup := sh.Setup
			if lanes > 1 {
				setup += dispatch
			}
			eng.At(start+setup, func() {
				copyUnits(streamRes, sh.Units, sh.UnitCost, func() {
					laneBusy[lane] = false
					if obs != nil {
						obs(i, lane, start, eng.Now())
					}
					laneRes.Release()
				})
			})
		})
	}
	eng.Run()
	return eng.Now()
}

// copyUnits pushes a shard's unit copies through the stream pool in
// chunks, then calls done (which releases the shard's lane).
func copyUnits(streamRes *Resource, units int, unitCost Time, done func()) {
	if units <= 0 || unitCost <= 0 {
		done()
		return
	}
	n := units
	if n > streamChunk {
		n = streamChunk
	}
	streamRes.Exec(Time(n)*unitCost, func(Time) {
		copyUnits(streamRes, units-n, unitCost, done)
	})
}
