package serve

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"

	"cxlfork/internal/experiments"
)

// metric is one /metricz series: the exposition is assembled from a
// snapshot so a scrape never holds the manager lock while writing.
type metric struct {
	name, help, kind string
	value            float64
}

// WriteMetricz writes the server-side metrics in Prometheus text
// exposition format: names sorted, one sample per series, timestamped
// with milliseconds since manager start. The output grammar is the
// same one the telemetry exporters use (and cxlstat's exposition
// checker enforces): `# HELP`/`# TYPE` comment pairs followed by
// `name value timestamp`.
func (m *Manager) WriteMetricz(w io.Writer) error {
	m.mu.Lock()
	ms := []metric{
		{"cxlserved_queue_depth", "Admitted sessions waiting for a running slot.", "gauge", float64(len(m.queue))},
		{"cxlserved_sessions_active", "Sessions currently replaying.", "gauge", float64(m.running)},
		{"cxlserved_sessions_accepted_total", "Sessions admitted (running or queued).", "counter", float64(m.accepted)},
		{"cxlserved_sessions_completed_total", "Sessions whose trace drained normally.", "counter", float64(m.completed)},
		{"cxlserved_sessions_canceled_total", "Sessions stopped by client cancel or shutdown drain.", "counter", float64(m.canceled)},
		{"cxlserved_sessions_timeout_total", "Sessions stopped by their wall-clock timeout.", "counter", float64(m.timedOut)},
		{"cxlserved_sessions_failed_total", "Sessions whose run errored.", "counter", float64(m.failed)},
		{"cxlserved_sessions_rejected_total", "Submissions rejected with 429 (saturated).", "counter", float64(m.rejected)},
		{"cxlserved_wall_seconds_per_virtual_second", "Wall-clock cost of one virtual second, over completed sessions.", "gauge", ratio(m.wallNS, m.virtNS)},
		{"cxlserved_max_sessions", "Configured running-slot bound.", "gauge", float64(m.cfg.MaxSessions)},
		{"cxlserved_max_queue", "Configured admission-queue bound.", "gauge", float64(m.cfg.MaxQueue)},
	}
	drain := 0.0
	if m.draining {
		drain = 1
	}
	ms = append(ms, metric{"cxlserved_draining", "1 while the server is shutting down.", "gauge", drain})
	m.mu.Unlock()

	// Go runtime health, read outside the manager lock: these are the
	// process-side gauges an operator watches next to -debug-addr's
	// pprof endpoints.
	var rt runtime.MemStats
	runtime.ReadMemStats(&rt)
	ms = append(ms,
		metric{"cxlserved_goroutines", "Live goroutines in the serving process.", "gauge", float64(runtime.NumGoroutine())},
		metric{"cxlserved_heap_bytes", "Heap bytes currently allocated (runtime HeapAlloc).", "gauge", float64(rt.HeapAlloc)},
		metric{"cxlserved_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", "counter", float64(rt.PauseTotalNs) / 1e9},
		metric{"cxlserved_gc_cycles_total", "Completed GC cycles.", "counter", float64(rt.NumGC)},
	)

	// The calibration memo is process-wide (DESIGN.md §13): a session
	// measures each function of its mix once per platform and design,
	// and every later session with the same inputs hits.
	memo := experiments.CalibrationMemoStats()
	ms = append(ms,
		metric{"cxlserved_calibration_memo_hits_total", "Function calibrations answered from the calibration memo.", "counter", float64(memo.Hits)},
		metric{"cxlserved_calibration_memo_misses_total", "Function calibrations measured because the memo lacked their inputs.", "counter", float64(memo.Misses)},
		metric{"cxlserved_calibration_memo_entries", "Function calibrations the memo holds.", "gauge", float64(memo.Entries)},
	)

	ts := time.Since(m.start).Milliseconds()
	if ts < 0 {
		ts = 0
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, s := range ms {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s %d\n",
			s.name, s.help, s.name, s.kind, s.name, formatValue(s.value), ts); err != nil {
			return err
		}
	}
	return nil
}

// ratio returns a/b as a finite float (0 when b is 0).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// formatValue renders a sample value in the exposition grammar
// (decimal or exponent form, never Inf/NaN — callers guard those).
func formatValue(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	// The grammar wants a digit before any exponent; FormatFloat 'g'
	// already emits e.g. "1e+06", which the checker accepts. Bare
	// integers come out bare ("3"), also accepted.
	return s
}
