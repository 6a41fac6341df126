package trace

import (
	"slices"
	"strings"

	"cxlfork/internal/des"
	"cxlfork/internal/metrics"
)

// SpanID identifies an emitted span. IDs are 1-based; None (0) is the
// root parent and Dropped (-1) marks a span the buffer rejected.
type SpanID int

// Sentinel span IDs.
const (
	// None is the root parent: a span with Parent == None is top-level.
	None SpanID = 0
	// Dropped is returned when a span could not be recorded (buffer full,
	// or its parent was itself dropped). Children of a dropped span are
	// dropped too, keeping the recorded tree closed under parenthood.
	Dropped SpanID = -1
)

// Event categories. Phases keys its distributions on Cat + "/" + Name
// and leaves lane events out (they are sub-phase detail). No category
// contains a "/", so a key names exactly one category and span name.
const (
	// CatOp marks a whole operation: checkpoint, restore, fork,
	// task-create.
	CatOp = "op"
	// CatPhase marks one phase inside an operation (serialize, copy,
	// attach, global-restore, prefetch...).
	CatPhase = "phase"
	// CatLane marks one pipeline shard on one copy lane.
	CatLane = "lane"
	// CatFault marks a page fault, named by its kernel.FaultKind.
	CatFault = "fault"
	// CatError marks a zero-width failure annotation inside an operation
	// span, named by the step that failed.
	CatError = "error"
	// CatPorter marks autoscaler request service spans (warm-start,
	// fork-restore, scratch-cold).
	CatPorter = "porter"
	// CatCapacity marks CXL capacity-manager activity: watermark reclaim
	// passes (bytes = occupancy delta freed), per-image evictions, and
	// snapshot re-publishes of evicted checkpoints.
	CatCapacity = "capacity"
)

// Track (virtual thread) layout per node. Operations and their phases
// serialize on one track, faults get their own so a fault burst inside
// an operation window never overlaps it on the same timeline, and each
// copy lane renders on its own track so Perfetto shows the pipeline's
// true parallelism. Concurrent autoscaler spans are placed on
// dynamically assigned flow tracks (EmitFlow).
const (
	// TrackOps carries operation and phase spans.
	TrackOps = 0
	// TrackFaults carries fault events.
	TrackFaults = 1
	// TrackLaneBase + lane carries that copy lane's shard spans.
	TrackLaneBase = 2
	// trackFlowBase is where EmitFlow's dynamically assigned tracks
	// start; it bounds the lane count a trace can render distinctly.
	trackFlowBase = 64
)

// DefaultBufferCap is the event capacity New uses when given none.
const DefaultBufferCap = 1 << 18

// chunkSpans is the span store's chunk length. Emit fills fixed chunks
// of this many events, so a span is written once and the store never
// copies the spans before it as it grows.
const chunkSpans = 4096

// Event is one recorded span. Begin and Dur are virtual time; zero-Dur
// events are instantaneous annotations.
type Event struct {
	Name   string
	Cat    string
	Node   int
	Track  int
	Begin  des.Time
	Dur    des.Time
	Parent SpanID
	// Bytes is the payload volume the span moved (0 when not meaningful).
	Bytes int64
	// Pages is the page/frame count the span covered (0 when not
	// meaningful).
	Pages int
}

// End returns the span's exclusive end time.
func (e Event) End() des.Time { return e.Begin + e.Dur }

// Tracer records spans into a bounded buffer. The zero value is not
// usable; construct with New. A nil Tracer is the disabled tracer.
type Tracer struct {
	cap int
	// n counts the recorded spans. The first len(flat) of them are
	// Events' last flattened copy; the rest fill chunks, each of
	// capacity chunkSpans or, at the cap, what remains of it.
	n        int
	flat     []Event
	chunks   [][]Event
	dropped  int64
	flowEnds map[int][]des.Time // per node: end time of the last span on each flow track
	// spanFree recycles shard-span buffers between CollectShards and
	// EmitShards (DESIGN.md §13): every checkpoint/restore pipeline
	// borrows one buffer for the duration of its (synchronous) makespan
	// computation, so steady-state tracing allocates no span slices.
	spanFree [][]ShardSpan
}

// New returns an enabled tracer holding at most bufferCap events
// (DefaultBufferCap when <= 0). Once full, further spans are counted in
// Dropped and discarded — the store never grows past the cap, so a
// runaway scenario degrades to counting instead of consuming memory.
func New(bufferCap int) *Tracer {
	if bufferCap <= 0 {
		bufferCap = DefaultBufferCap
	}
	return &Tracer{
		cap:      bufferCap,
		flowEnds: make(map[int][]des.Time),
	}
}

// Enabled reports whether spans are being recorded. It is the guard for
// any caller-side work beyond the Emit call itself (building shard
// observers, formatting names).
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one complete span and returns its ID for use as a parent.
// Mechanisms accumulate costs before advancing the clock, so spans are
// emitted with explicit [begin, begin+dur) intervals once the interval
// is known, parents before children. A nil tracer, a full buffer, or a
// dropped parent yields Dropped.
func (t *Tracer) Emit(parent SpanID, node, track int, cat, name string, begin, dur des.Time, bytes int64, pages int) SpanID {
	if t == nil {
		return Dropped
	}
	if dur < 0 {
		panic("trace: negative span duration")
	}
	if parent < 0 || int(parent) > t.n || t.n >= t.cap {
		t.dropped++
		return Dropped
	}
	k := len(t.chunks) - 1
	if k < 0 || len(t.chunks[k]) == cap(t.chunks[k]) {
		t.chunks = append(t.chunks, make([]Event, 0, min(chunkSpans, t.cap-t.n)))
		k++
	}
	t.chunks[k] = append(t.chunks[k], Event{
		Name: name, Cat: cat, Node: node, Track: track,
		Begin: begin, Dur: dur, Parent: parent, Bytes: bytes, Pages: pages,
	})
	t.n++
	return SpanID(t.n)
}

// EmitFlow records a top-level span on a dynamically assigned per-node
// track, for operations that overlap in virtual time (concurrent
// autoscaler requests on one node's cores). Tracks are assigned
// greedily: the lowest track whose previous span ended by begin, a
// deterministic function of emission order. A span the full buffer
// drops claims no track.
func (t *Tracer) EmitFlow(node int, cat, name string, begin, dur des.Time, bytes int64, pages int) SpanID {
	if t == nil {
		return Dropped
	}
	if t.n >= t.cap {
		t.dropped++
		return Dropped
	}
	lanes := t.flowEnds[node]
	slot := -1
	for i, end := range lanes {
		if end <= begin {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = len(lanes)
		lanes = append(lanes, 0)
	}
	lanes[slot] = begin + dur
	t.flowEnds[node] = lanes
	return t.Emit(None, node, trackFlowBase+slot, cat, name, begin, dur, bytes, pages)
}

// Events returns the recorded spans in emission order. The first read
// after new spans appends the chunks to one flat copy, which then
// stores them in the chunks' place; reads with no spans in between
// return the same slice. The slice is the tracer's store: callers must
// not mutate it. A nil tracer returns nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if len(t.chunks) > 0 {
		t.flat = slices.Grow(t.flat, t.n-len(t.flat))
		for _, c := range t.chunks {
			t.flat = append(t.flat, c...)
		}
		t.chunks = nil
	}
	return t.flat
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many spans the buffer rejected.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Phase is the duration distribution of one span key.
type Phase struct {
	// Name is the key, "cat/name" (e.g. "phase/copy", "op/checkpoint",
	// "fault/cow-cxl").
	Name string
	// Latency holds the duration of every span with this key.
	Latency *metrics.LatencyRecorder
}

// Phases folds a span stream into one duration distribution per
// cat/name key, sorted by key, leaving lane spans out — the paper's
// Fig. 6 phase breakdown. It is one pass over the recorded spans, so
// the table always agrees with the trace it summarizes.
func Phases(events []Event) []Phase {
	type key struct{ cat, name string }
	index := make(map[key]int)
	var out []Phase
	for _, e := range events {
		if e.Cat == CatLane {
			continue
		}
		k := key{e.Cat, e.Name}
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, Phase{Name: e.Cat + "/" + e.Name, Latency: metrics.NewLatencyRecorder()})
		}
		out[i].Latency.Record(e.Dur)
	}
	slices.SortFunc(out, func(a, b Phase) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// ShardSpan is one pipeline shard's observed execution, as reported by
// a des.ShardObserver: the lane it ran on and its [Start, End) interval
// relative to the pipeline's own time zero, with the name and unit
// count its lane span records.
type ShardSpan struct {
	Name       string
	Lane       int
	Start, End des.Time
	Units      int
}

// ShardNames names a pipeline's lane spans: shard i is Head when
// i < Split and Tail otherwise, so a pipeline of like shards sets only
// Tail.
type ShardNames struct {
	Head  string
	Split int
	Tail  string
}

// CollectShards returns a des.ShardObserver that appends each shard's
// interval, named by names and carrying shards[i].Units as its page
// count, to the returned slice, for replay as lane spans once the
// containing phase's begin time is known (EmitShards). A disabled
// tracer returns (nil, nil) so the pipeline runs observer-free. The
// backing buffer comes from the tracer's span free list; EmitShards
// returns it, so paired Collect/Emit cycles allocate nothing once
// warm. Error paths that skip EmitShards simply leak the buffer to the
// garbage collector — recycling is an optimization, not an obligation.
func (t *Tracer) CollectShards(shards []des.Shard, names ShardNames) (des.ShardObserver, *[]ShardSpan) {
	if t == nil {
		return nil, nil
	}
	var buf []ShardSpan
	if n := len(t.spanFree); n > 0 {
		buf = t.spanFree[n-1][:0]
		t.spanFree = t.spanFree[:n-1]
	}
	spans := &buf
	return func(shard, lane int, start, end des.Time) {
		name := names.Tail
		if shard < names.Split {
			name = names.Head
		}
		*spans = append(*spans, ShardSpan{Name: name, Lane: lane, Start: start, End: end, Units: shards[shard].Units})
	}, spans
}

// EmitShards emits one lane span per collected shard interval as
// children of parent, shifting pipeline-relative intervals by begin.
// The span buffer is recycled into the tracer's free list; the caller
// must not reuse it after this call.
func (t *Tracer) EmitShards(parent SpanID, node int, begin des.Time, spans *[]ShardSpan) {
	if t == nil || spans == nil {
		return
	}
	for _, s := range *spans {
		t.Emit(parent, node, TrackLaneBase+s.Lane, CatLane, s.Name, begin+s.Start, s.End-s.Start, 0, s.Units)
	}
	t.spanFree = append(t.spanFree, (*spans)[:0])
	*spans = nil
}
