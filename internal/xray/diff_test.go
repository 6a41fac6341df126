package xray

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"cxlfork/internal/des"
	"cxlfork/internal/trace"
)

// TestExemplarInsertionMatchesStableSort checks the binary-search
// insertion against the exemplar list it replaced: append, stable sort
// under (latency desc, arrival asc, sequence asc), truncate to topK.
// Latencies and arrivals come from small ranges, so ties on both are
// common.
func TestExemplarInsertionMatchesStableSort(t *testing.T) {
	for _, topK := range []int{0, 1, 8} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := New(nil, topK)
			var ref []Exemplar
			// One component buffer serves every request, as in the
			// porter: Observe must keep none of it.
			var buf []Component
			for seq := int64(1); seq <= 2000; seq++ {
				buf = append(buf[:0],
					Component{Name: CompExec, NS: int64(rng.Intn(3))},
					Component{Name: CompCPUQueue, NS: int64(rng.Intn(2))},
				)
				r := Request{
					Class:      "c",
					Name:       fmt.Sprintf("r%d", seq),
					Span:       int(seq),
					Arrived:    int64(rng.Intn(5)),
					Latency:    int64(rng.Intn(10)),
					Components: buf,
				}
				a.Observe(&r)

				ex := Exemplar{Seq: seq, Name: r.Name, Span: r.Span, LatencyNS: r.Latency, ArrivedNS: r.Arrived}
				var sum int64
				for _, c := range r.Components {
					sum += c.NS
					if c.NS != 0 {
						ex.Components = append(ex.Components, c)
					}
				}
				ex.ResidualNS = r.Latency - sum
				ref = append(ref, ex)
				sort.SliceStable(ref, func(i, j int) bool {
					if ref[i].LatencyNS != ref[j].LatencyNS {
						return ref[i].LatencyNS > ref[j].LatencyNS
					}
					if ref[i].ArrivedNS != ref[j].ArrivedNS {
						return ref[i].ArrivedNS < ref[j].ArrivedNS
					}
					return ref[i].Seq < ref[j].Seq
				})
				if len(ref) > a.topK {
					ref = ref[:a.topK]
				}
				if got := a.class("c").exemplars; !reflect.DeepEqual(got, ref) {
					t.Fatalf("topK %d seed %d seq %d: exemplars\n%+v\nreference\n%+v", topK, seed, seq, got, ref)
				}
			}
		}
	}
}

// fromSpansNested is FromSpans as first written: for every op span it
// rescans the rest of the stream for its phase children, which is
// quadratic in the stream length. It is the reference the one-pass
// grouping must reproduce.
func fromSpansNested(events []trace.Event, topK int) *Report {
	a := New(nil, topK)
	for i, e := range events {
		if e.Cat != trace.CatOp && e.Cat != trace.CatPorter {
			continue
		}
		id := trace.SpanID(i + 1)
		var comps []Component
		idx := map[string]int{}
		for _, child := range events[i+1:] {
			if child.Parent != id || child.Cat != trace.CatPhase {
				continue
			}
			if j, ok := idx[child.Name]; ok {
				comps[j].NS += int64(child.Dur)
				continue
			}
			idx[child.Name] = len(comps)
			comps = append(comps, Component{Name: child.Name, NS: int64(child.Dur)})
		}
		a.Observe(&Request{
			Class:      e.Cat + "/" + e.Name,
			Name:       e.Name,
			Span:       int(id),
			Arrived:    int64(e.Begin),
			Latency:    int64(e.Dur),
			Device:     -1,
			Components: comps,
		})
	}
	return a.Report()
}

// randomSpans is a span stream of every category, with phase names
// from a small set (so merges happen) and parents drawn from anywhere
// in the stream, including ones a Tracer would never record: the span
// itself, later spans, and non-op spans.
func randomSpans(rng *rand.Rand, n int) []trace.Event {
	cats := []string{trace.CatOp, trace.CatPorter, trace.CatPhase, trace.CatPhase, trace.CatPhase, trace.CatLane, trace.CatFault}
	names := []string{"copy", "attach", "serialize", "dedup"}
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{
			Cat:   cats[rng.Intn(len(cats))],
			Name:  names[rng.Intn(len(names))],
			Begin: des.Time(rng.Intn(1000)),
			Dur:   des.Time(rng.Intn(100)),
		}
		if rng.Intn(4) > 0 {
			events[i].Parent = trace.SpanID(rng.Intn(n + 1))
		}
	}
	return events
}

func TestFromSpansMatchesNestedScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := randomSpans(rng, 1+rng.Intn(400))
		for _, topK := range []int{0, 3} {
			got, want := FromSpans(events, topK), fromSpansNested(events, topK)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d topK %d: one-pass report\n%s\nnested scan\n%s", seed, topK, got.Text(), want.Text())
			}
		}
	}
}

// TestFromSpansLinear builds a full default trace buffer of 2^18
// spans: porter spans interleaved with ops and their phase children.
// The nested scan took 13 s at a quarter of this size on a 2-vCPU host.
func TestFromSpansLinear(t *testing.T) {
	const n = trace.DefaultBufferCap
	events := make([]trace.Event, 0, n)
	for len(events) < n {
		events = append(events, trace.Event{Cat: trace.CatPorter, Name: "warm-start", Dur: 10})
		if len(events)%4 == 1 {
			op := trace.SpanID(len(events) + 1)
			events = append(events,
				trace.Event{Cat: trace.CatOp, Name: "restore", Dur: 100},
				trace.Event{Cat: trace.CatPhase, Name: "copy", Parent: op, Dur: 30},
				trace.Event{Cat: trace.CatPhase, Name: "attach", Parent: op, Dur: 20})
		}
	}
	events = events[:n]
	start := time.Now()
	r := FromSpans(events, 0)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("FromSpans over %d spans took %v", n, d)
	}
	if c := r.Class("op/restore"); c == nil || c.ResidualNS != 50*c.Count {
		t.Fatalf("op/restore = %+v", c)
	}
}
