package xray

import "cxlfork/internal/trace"

// FromSpans builds an attribution report directly from a recorded span
// stream: every operation span (CatOp or CatPorter) becomes one
// request in its own class, decomposed into its direct phase
// children's durations, with the op time outside any phase carried as
// the residual. topK bounds per-class exemplars (DefaultExemplars
// when <= 0).
//
// This is the facade's trace-side view — mechanism-level checkpoint,
// restore, and fork ops with their serialize/copy/attach/dedup phases
// — complementary to the porter-fed per-request view, and rendered by
// the same Report machinery.
func FromSpans(events []trace.Event, topK int) *Report {
	// Group phase children under their op span in one pass, merging
	// repeated phase names (per-VMA copy rounds, per-leaf attaches)
	// into one component each, first-seen order. Tracer.Emit records a
	// parent before its children, so a child's parent is always behind
	// it in the stream.
	comps := make(map[trace.SpanID][]Component)
	for j, child := range events {
		if child.Cat != trace.CatPhase || child.Parent <= 0 || child.Parent >= trace.SpanID(j+1) {
			continue
		}
		if op := events[child.Parent-1].Cat; op != trace.CatOp && op != trace.CatPorter {
			continue
		}
		cs := comps[child.Parent]
		merged := false
		for k := range cs {
			if cs[k].Name == child.Name {
				cs[k].NS += int64(child.Dur)
				merged = true
				break
			}
		}
		if !merged {
			comps[child.Parent] = append(cs, Component{Name: child.Name, NS: int64(child.Dur)})
		}
	}
	a := New(nil, topK)
	for i, e := range events {
		if e.Cat != trace.CatOp && e.Cat != trace.CatPorter {
			continue
		}
		id := trace.SpanID(i + 1)
		a.Observe(&Request{
			Class:      e.Cat + "/" + e.Name,
			Name:       e.Name,
			Span:       int(id),
			Arrived:    int64(e.Begin),
			Latency:    int64(e.Dur),
			Device:     -1,
			Components: comps[id],
		})
	}
	return a.Report()
}
