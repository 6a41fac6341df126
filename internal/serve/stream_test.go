package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"cxlfork"
)

func postSpec(t *testing.T, client *http.Client, url string, spec Spec) *http.Response {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	return resp
}

func TestStreamFrameOrdering(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	defer drainNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp := postSpec(t, srv.Client(), srv.URL+"/v1/sessions?stream=1", fastSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != NDJSONContentType {
		t.Fatalf("content type = %q, want %q", ct, NDJSONContentType)
	}

	var heads []frameHead
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var h frameHead
		if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		heads = append(heads, h)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(heads) < 3 {
		t.Fatalf("stream too short: %+v", heads)
	}
	if heads[0].Type != "hello" {
		t.Fatalf("first frame %+v, want hello", heads[0])
	}
	last := heads[len(heads)-1]
	if last.Type != "eof" || last.Reason != ReasonComplete {
		t.Fatalf("last frame %+v, want eof/complete", last)
	}
	if last.Frames != len(heads) {
		t.Fatalf("eof frame count %d, want %d", last.Frames, len(heads))
	}
	if heads[len(heads)-2].Type != "result" {
		t.Fatalf("penultimate frame %+v, want result", heads[len(heads)-2])
	}
	var seq int64
	for _, h := range heads[1 : len(heads)-2] {
		if h.Type != "sample" && h.Type != "alert" {
			t.Fatalf("unexpected mid-stream frame type %q", h.Type)
		}
		if h.Type == "sample" {
			if h.Seq != seq+1 {
				t.Fatalf("sample seq %d after %d: frames out of order", h.Seq, seq)
			}
			seq = h.Seq
		}
	}
	if seq == 0 {
		t.Fatal("stream carried no sample frames")
	}
}

func TestStreamCleanEOFOnShutdown(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp := postSpec(t, srv.Client(), srv.URL+"/v1/sessions", slowSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var sum struct {
		ID     string `json:"id"`
		Stream string `json:"stream"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatalf("decode submit reply: %v", err)
	}
	resp.Body.Close()

	s, ok := m.Get(sum.ID)
	if !ok {
		t.Fatalf("session %s not found", sum.ID)
	}
	waitRunning(t, s, 10*time.Second)

	streamResp, err := srv.Client().Get(srv.URL + sum.Stream)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer streamResp.Body.Close()

	type streamResult struct {
		heads []frameHead
		err   error
	}
	got := make(chan streamResult, 1)
	go func() {
		var r streamResult
		sc := bufio.NewScanner(streamResp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var h frameHead
			if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
				r.err = err
				break
			}
			r.heads = append(r.heads, h)
		}
		if r.err == nil {
			r.err = sc.Err()
		}
		got <- r
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = m.Drain(ctx)

	select {
	case r := <-got:
		if r.err != nil && r.err != io.EOF {
			t.Fatalf("stream did not end cleanly: %v", r.err)
		}
		if len(r.heads) == 0 {
			t.Fatal("stream ended with no frames")
		}
		last := r.heads[len(r.heads)-1]
		if last.Type != "eof" || last.Reason != ReasonShutdown {
			t.Fatalf("last frame %+v, want eof/shutdown", last)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream still open after drain")
	}
}

func TestHTTPAdmissionAndMetricz(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1, MaxQueue: 1, RetryAfter: 3 * time.Second})
	defer drainNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	r1 := postSpec(t, srv.Client(), srv.URL+"/v1/sessions", slowSpec())
	r1.Body.Close()
	r2 := postSpec(t, srv.Client(), srv.URL+"/v1/sessions", slowSpec())
	r2.Body.Close()
	r3 := postSpec(t, srv.Client(), srv.URL+"/v1/sessions", slowSpec())
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status = %d, want 429", r3.StatusCode)
	}
	if ra := r3.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	mresp, err := srv.Client().Get(srv.URL + "/metricz")
	if err != nil {
		t.Fatalf("GET /metricz: %v", err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatalf("read /metricz: %v", err)
	}
	checkExposition(t, string(body))
	for _, want := range []string{
		"cxlserved_sessions_rejected_total 1 ",
		"cxlserved_sessions_active 1 ",
		"cxlserved_queue_depth 1 ",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metricz missing %q:\n%s", want, body)
		}
	}

	for _, s := range m.Sessions() {
		m.Cancel(s.ID, ReasonCanceled)
	}
	for _, s := range m.Sessions() {
		waitTerminal(t, s, 30*time.Second)
	}
}

// memoRuns counts TestMetriczCalibrationMemo's runs, so that each run,
// -count=2 included, calibrates a CXL latency of its own.
var memoRuns int

// TestMetriczCalibrationMemo posts one spec twice. Its CXL latency is
// one no other test or run uses, so the first session misses the
// calibration memo once per function and the second hits once per
// function.
func TestMetriczCalibrationMemo(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	defer drainNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	memoRuns++
	spec := fastSpec()
	spec.Config.CXLLatency = Duration(time.Duration(400+memoRuns) * time.Nanosecond)
	spec.Workload.Functions = []string{"Float", "Json"}
	fns := float64(len(spec.Workload.Functions))
	series := []string{
		"cxlserved_calibration_memo_hits_total",
		"cxlserved_calibration_memo_misses_total",
		"cxlserved_calibration_memo_entries",
	}
	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/metricz")
		if err != nil {
			t.Fatalf("GET /metricz: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read /metricz: %v", err)
		}
		checkExposition(t, string(body))
		vals := make(map[string]float64)
		for _, line := range strings.Split(string(body), "\n") {
			f := strings.Fields(line)
			if len(f) == 3 && slices.Contains(series, f[0]) {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					t.Fatalf("bad sample %q: %v", line, err)
				}
				vals[f[0]] = v
			}
		}
		if len(vals) != len(series) {
			t.Fatalf("/metricz carries %v, want all of %v:\n%s", vals, series, body)
		}
		return vals
	}
	session := func() {
		t.Helper()
		resp := postSpec(t, srv.Client(), srv.URL+"/v1/sessions?stream=1", spec)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("stream read: %v", err)
		}
	}

	before := scrape()
	session()
	first := scrape()
	session()
	second := scrape()
	for _, d := range []struct {
		name                  string
		from, to              map[string]float64
		hits, misses, entries float64
	}{
		{"first session", before, first, 0, fns, fns},
		{"second session", first, second, fns, 0, 0},
	} {
		if got := d.to[series[0]] - d.from[series[0]]; got != d.hits {
			t.Errorf("%s: %g memo hits, want %g", d.name, got, d.hits)
		}
		if got := d.to[series[1]] - d.from[series[1]]; got != d.misses {
			t.Errorf("%s: %g memo misses, want %g", d.name, got, d.misses)
		}
		if got := d.to[series[2]] - d.from[series[2]]; got != d.entries {
			t.Errorf("%s: memo entries grew by %g, want %g", d.name, got, d.entries)
		}
	}
}

// checkExposition validates the Prometheus text format the telemetry
// exporters (and cxlstat's scrape checker) expect: HELP/TYPE comment
// pairs and `name{labels} value timestamp` samples.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	comment := regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)? [0-9]+$`)
	n := 0
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !comment.MatchString(line) {
				t.Fatalf("bad exposition comment %q", line)
			}
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("bad exposition sample %q", line)
		}
		n++
	}
	if n == 0 {
		t.Fatal("exposition carried no samples")
	}
}

func TestHTTPErrors(t *testing.T) {
	m := NewManager(Config{})
	defer drainNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad json", "POST", "/v1/sessions", "{", http.StatusBadRequest},
		{"unknown field", "POST", "/v1/sessions", `{"wokload":{}}`, http.StatusBadRequest},
		{"unknown design", "POST", "/v1/sessions", `{"workload":{"design":"QEMU"}}`, http.StatusBadRequest},
		{"negative nodes", "POST", "/v1/sessions", `{"config":{"nodes":-1}}`, http.StatusBadRequest},
		{"oversized platform", "POST", "/v1/sessions", `{"config":{"nodes":16,"node_dram_bytes":68719476736}}`, http.StatusBadRequest},
		{"missing session", "GET", "/v1/sessions/s999", "", http.StatusNotFound},
		{"missing stream", "GET", "/v1/sessions/s999/stream", "", http.StatusNotFound},
		{"missing cancel", "DELETE", "/v1/sessions/s999", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var er errorReply
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
				t.Fatalf("error body = %+v (%v)", er, err)
			}
		})
	}
}

// TestRejectedSpecsKeepServing posts the specs that used to take the
// server down: an unknown eviction policy panicked the session
// goroutine, an all-zero weight mix generated an arrival every virtual
// nanosecond until the process ran out of memory, a 10 µs sampling
// period grew the frame log by about 30 MB per wall-clock second, and a
// 1 µs reclaim or repair period ran until the session timeout. Each
// must get a 400 whose reason names the field, and the server must
// still run the next session to completion.
func TestRejectedSpecsKeepServing(t *testing.T) {
	m := NewManager(Config{})
	defer drainNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	for field, mut := range map[string]func(*Spec){
		"capacity.evict_policy":     func(s *Spec) { s.Config.Capacity.EvictPolicy = "fifo" },
		"fabric.placement":          func(s *Spec) { s.Config.Fabric.Placement = "random" },
		"fabric.topology":           func(s *Spec) { s.Config.Fabric.Topology = "not a topology at all" },
		"weights":                   func(s *Spec) { s.Workload.Weights = map[string]float64{"Float": 0} },
		"telemetry.sample_every":    func(s *Spec) { s.Config.Telemetry.SampleEvery = Duration(10 * time.Microsecond) },
		"capacity.reclaim_period":   func(s *Spec) { s.Config.Capacity.ReclaimPeriod = Duration(time.Microsecond) },
		"replication.repair_period": func(s *Spec) { s.Config.Replication.RepairPeriod = Duration(time.Microsecond) },
	} {
		spec := fastSpec()
		mut(&spec)
		resp := postSpec(t, srv.Client(), srv.URL+"/v1/sessions", spec)
		var er errorReply
		err := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(er.Error, field) {
			t.Fatalf("%s: status %d, reply %+v (%v); want 400 naming the field", field, resp.StatusCode, er, err)
		}
	}

	resp := postSpec(t, srv.Client(), srv.URL+"/v1/sessions", fastSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var sum struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatalf("decode submit reply: %v", err)
	}
	resp.Body.Close()
	if rep := pollReport(t, srv, sum.ID); rep.Completed == 0 {
		t.Fatal("session after the rejections completed no requests")
	}
}

// TestDuplicateFunctionRejected posts a mix that lists Float twice
// under every design: each gets a 400 naming the function, before a
// session is queued.
func TestDuplicateFunctionRejected(t *testing.T) {
	m := NewManager(Config{})
	defer drainNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	for _, d := range cxlfork.WorkloadDesigns {
		spec := fastSpec()
		spec.Workload.Design = d
		spec.Workload.Functions = []string{"Float", "Float", "Json"}
		resp := postSpec(t, srv.Client(), srv.URL+"/v1/sessions", spec)
		var er errorReply
		err := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(er.Error, `function "Float" listed twice`) {
			t.Errorf("%s: status %d, reply %+v (%v); want 400 naming Float", d, resp.StatusCode, er, err)
		}
	}
}

func TestDesignsAndHealth(t *testing.T) {
	m := NewManager(Config{})
	defer drainNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dr struct {
		Designs   []string `json:"designs"`
		Functions []string `json:"functions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Designs) != 4 || len(dr.Functions) == 0 {
		t.Fatalf("designs reply %+v", dr)
	}

	h, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", h.StatusCode)
	}
	drainNow(t, m)
	h2, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h2.Body.Close()
	if h2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", h2.StatusCode)
	}
}
