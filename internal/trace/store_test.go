package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cxlfork/internal/des"
)

// flatStore is the reference span store: one slice that grows by
// append, holding at most cap spans, with Emit's ID and drop rules.
type flatStore struct {
	cap     int
	events  []Event
	dropped int64
}

func (f *flatStore) emit(e Event) SpanID {
	if e.Parent < 0 || int(e.Parent) > len(f.events) || len(f.events) >= f.cap {
		f.dropped++
		return Dropped
	}
	f.events = append(f.events, e)
	return SpanID(len(f.events))
}

// spanStream emits n spans into both stores. Parents mix roots, the
// previous span, spans one or more chunks back, a dropped parent and a
// parent not yet recorded. When readAt > 0, Events is read once after
// that many emits and the copy checked against the reference then.
func spanStream(t *testing.T, tr *Tracer, ref *flatStore, rng *rand.Rand, n, readAt int) {
	t.Helper()
	var last SpanID
	for i := 0; i < n; i++ {
		var parent SpanID
		switch k := rng.Intn(16); {
		case k < 6:
			parent = None
		case k < 11:
			parent = last
		case k < 14 && ref.events != nil:
			parent = SpanID(1 + rng.Intn(len(ref.events)))
		case k == 14:
			parent = Dropped
		default:
			parent = SpanID(len(ref.events) + 1 + rng.Intn(3))
		}
		e := Event{
			Name: fmt.Sprintf("s%d", rng.Intn(7)), Cat: []string{CatOp, CatPhase, CatLane}[rng.Intn(3)],
			Node: rng.Intn(4), Track: rng.Intn(70), Begin: des.Time(i * 10), Dur: des.Time(rng.Intn(50)),
			Parent: parent, Bytes: rng.Int63n(1 << 20), Pages: rng.Intn(256),
		}
		want := ref.emit(e)
		got := tr.Emit(e.Parent, e.Node, e.Track, e.Cat, e.Name, e.Begin, e.Dur, e.Bytes, e.Pages)
		if got != want {
			t.Fatalf("emit %d: ID %d, reference %d", i, got, want)
		}
		if want > 0 {
			last = want
		}
		if i+1 == readAt {
			sameStore(t, fmt.Sprintf("read after %d emits", readAt), tr, ref)
		}
	}
}

// sameStore checks the tracer's counts and flattened events against
// the reference.
func sameStore(t *testing.T, ctx string, tr *Tracer, ref *flatStore) {
	t.Helper()
	if tr.Len() != len(ref.events) || tr.Dropped() != ref.dropped {
		t.Fatalf("%s: Len %d Dropped %d, reference %d and %d", ctx, tr.Len(), tr.Dropped(), len(ref.events), ref.dropped)
	}
	if got := tr.Events(); !slices.Equal(got, ref.events) {
		t.Fatalf("%s: Events differs from the flat reference (%d vs %d spans)", ctx, len(got), len(ref.events))
	}
}

func TestChunkedStoreMatchesFlat(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cap, n, readAt int
	}{
		{"one short of a chunk", DefaultBufferCap, chunkSpans - 1, 0},
		{"one chunk", DefaultBufferCap, chunkSpans, 0},
		{"one past a chunk", DefaultBufferCap, chunkSpans + 1, 0},
		{"two chunks and one", DefaultBufferCap, 2*chunkSpans + 1, 0},
		{"cap inside the second chunk", chunkSpans + 1000, 2*chunkSpans + 1, 0},
		{"cap inside the first chunk", 1000, chunkSpans, 0},
		{"read mid-chunk", DefaultBufferCap, 2*chunkSpans + 1, chunkSpans + 17},
		{"read at a chunk edge", DefaultBufferCap, 2*chunkSpans + 1, chunkSpans},
		{"read then drops past the cap", chunkSpans + 1000, 3 * chunkSpans, chunkSpans + 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, ref := New(tc.cap), &flatStore{cap: tc.cap}
			spanStream(t, tr, ref, rand.New(rand.NewSource(int64(tc.n+tc.cap))), tc.n, tc.readAt)
			sameStore(t, "final read", tr, ref)
			// A second read with no spans in between is the same copy.
			if a, b := tr.Events(), tr.Events(); len(a) > 0 && &a[0] != &b[0] {
				t.Error("a repeated read flattened again")
			}
		})
	}
}

// A slice Events returned keeps its content while more spans arrive and
// a later read flattens them.
func TestEventsEarlierReadIsStable(t *testing.T) {
	tr := New(0)
	for i := 0; i < chunkSpans+3; i++ {
		tr.Emit(None, 0, TrackOps, CatOp, "a", des.Time(i), 1, 0, 0)
	}
	first := tr.Events()
	want := slices.Clone(first)
	for i := 0; i < 2*chunkSpans; i++ {
		tr.Emit(SpanID(1+i%len(first)), 0, TrackOps, CatPhase, "b", des.Time(i), 1, 0, 0)
	}
	if second := tr.Events(); len(second) != len(want)+2*chunkSpans || !slices.Equal(second[:len(want)], want) {
		t.Fatalf("second read: %d spans, want %d with the first read as prefix", len(second), len(want)+2*chunkSpans)
	}
	if !slices.Equal(first, want) {
		t.Fatal("the first read's slice changed under later spans")
	}
}

// Emit inside a chunk allocates nothing: each span is written once.
func TestEmitInsideChunkAllocatesNothing(t *testing.T) {
	tr := New(0)
	tr.Emit(None, 0, TrackOps, CatOp, "first", 0, 1, 0, 0) // allocates the chunk
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(1, 0, TrackOps, CatPhase, "copy", 0, 1, 4096, 1)
	})
	if allocs != 0 {
		t.Fatalf("Emit inside a chunk: %.1f allocations, want 0", allocs)
	}
}
