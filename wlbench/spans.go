package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// id and its parent's (0 for a root), the job it belongs to (a served
// session or a trace replay), and its wall-clock interval in
// nanoseconds since the run started.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay only a nil check per call.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(name, job string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent, Job: job,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// begin opens a span that end closes.
func (r *recorder) begin(name, job string, parent int) int {
	now := time.Now()
	return r.add(name, job, parent, now, now)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.t0).Nanoseconds()
}

// selfTimes maps every span id to its duration minus the part of its
// interval that its children cover. Overlapping children count once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		at := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfSeconds returns the self time, in seconds, of every span named
// name, in recording order.
func (r *recorder) selfSeconds(name string) []float64 {
	self := selfTimes(r.spans)
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, self[s.ID].Seconds())
		}
	}
	return out
}

// write stores the spans as one JSON array.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
