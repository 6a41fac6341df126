package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFinishedHistoryBounded finishes more than maxFinished sessions
// and checks that the oldest finished ones are forgotten while running
// sessions, the listing order, open streams, and the counters survive.
func TestFinishedHistoryBounded(t *testing.T) {
	m := NewManager(Config{MaxSessions: 2, MaxQueue: maxFinished + 1})
	defer drainNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()

	submit := func(spec Spec) *Session {
		t.Helper()
		s, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return s
	}

	// long holds one running slot for the whole test and is older than
	// every finished session.
	long := submit(slowSpec())
	waitRunning(t, long, 10*time.Second)
	var done []*Session
	for i := 0; i < 2; i++ {
		s := submit(fastSpec())
		waitTerminal(t, s, 30*time.Second)
		done = append(done, s)
	}

	// blocker holds the other slot while the queue fills, and a reader
	// streams it from before it is forgotten until its eof.
	blocker := submit(slowSpec())
	waitRunning(t, blocker, 10*time.Second)
	resp, err := client.Get(srv.URL + "/v1/sessions/" + blocker.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	streamed := make(chan []frameHead, 1)
	go func() {
		var heads []frameHead
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var h frameHead
			if json.Unmarshal(sc.Bytes(), &h) == nil {
				heads = append(heads, h)
			}
		}
		streamed <- heads
	}()

	// Each queued session is canceled before its slot arrives, so it
	// finishes the moment blocker releases the slot.
	var queued []*Session
	for i := 0; i < maxFinished+1; i++ {
		s := submit(fastSpec())
		if s.State() != StateQueued {
			t.Fatalf("%s state = %s, want queued", s.ID, s.State())
		}
		m.Cancel(s.ID, ReasonCanceled)
		queued = append(queued, s)
	}
	m.Cancel(blocker.ID, ReasonCanceled)
	deadline := time.Now().Add(30 * time.Second)
	for m.Running() != 1 || m.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: running %d, queued %d", m.Running(), m.QueueDepth())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Finish order: done[0], done[1], blocker, queued[0..64]; the
	// oldest four fall out of the 64-session history.
	gone := []*Session{done[0], done[1], blocker, queued[0]}
	for _, s := range gone {
		if _, ok := m.Get(s.ID); ok {
			t.Fatalf("%s still resolves after eviction", s.ID)
		}
		for _, req := range []struct{ method, path string }{
			{http.MethodGet, ""},
			{http.MethodGet, "/stream"},
			{http.MethodGet, "/xray"},
			{http.MethodDelete, ""},
		} {
			r, err := http.NewRequest(req.method, srv.URL+"/v1/sessions/"+s.ID+req.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := client.Do(r)
			if err != nil {
				t.Fatalf("%s %s: %v", req.method, req.path, err)
			}
			res.Body.Close()
			if res.StatusCode != http.StatusNotFound {
				t.Fatalf("%s %s%s = %d, want 404", req.method, s.ID, req.path, res.StatusCode)
			}
		}
	}
	if long.State() != StateRunning {
		t.Fatalf("long-running session state = %s", long.State())
	}

	// The listing keeps admission order: long first, then the 64 most
	// recently finished.
	want := []string{long.ID}
	for _, s := range queued[1:] {
		want = append(want, s.ID)
	}
	var got []string
	for _, s := range m.Sessions() {
		got = append(got, s.ID)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("sessions = %v, want %v", got, want)
	}
	lresp, err := client.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatalf("GET /v1/sessions: %v", err)
	}
	var list struct {
		Sessions []summary `json:"sessions"`
	}
	err = json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if err != nil {
		t.Fatalf("decode listing: %v", err)
	}
	got = got[:0]
	for _, s := range list.Sessions {
		got = append(got, s.ID)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("GET /v1/sessions = %v, want %v", got, want)
	}

	// The reader that was streaming blocker got every frame.
	heads := <-streamed
	if len(heads) < 2 || heads[0].Type != "hello" {
		t.Fatalf("evicted stream should open with hello: %+v", heads)
	}
	if last := heads[len(heads)-1]; last.Type != "eof" || last.Reason != ReasonCanceled || last.Frames != len(heads) {
		t.Fatalf("evicted stream ended with %+v after %d frames", last, len(heads))
	}

	// Counters stay cumulative.
	mresp, err := client.Get(srv.URL + "/metricz")
	if err != nil {
		t.Fatalf("GET /metricz: %v", err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatalf("read /metricz: %v", err)
	}
	for name, n := range map[string]int{
		"cxlserved_sessions_accepted_total":  1 + len(done) + 1 + len(queued),
		"cxlserved_sessions_completed_total": len(done),
		"cxlserved_sessions_canceled_total":  1 + len(queued),
	} {
		if want := name + " " + strconv.Itoa(n) + " "; !strings.Contains(string(body), want) {
			t.Fatalf("/metricz missing %q:\n%s", want, body)
		}
	}
}
