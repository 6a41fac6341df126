package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cxlfork"
)

// maxSpecBytes bounds a POST body; specs are small JSON documents.
const maxSpecBytes = 1 << 20

// NDJSONContentType is the media type of the session streams.
const NDJSONContentType = "application/x-ndjson"

// NewHandler returns the cxlserved HTTP API over m. Endpoints, frame
// formats, and error semantics are specified in docs/API.md:
//
//	POST   /v1/sessions          submit a spec (?stream=1 streams inline)
//	GET    /v1/sessions          list sessions
//	GET    /v1/sessions/{id}     session status + report
//	DELETE /v1/sessions/{id}     cancel a session
//	GET    /v1/sessions/{id}/stream   NDJSON frame stream (replay + follow)
//	GET    /v1/sessions/{id}/xray     attribution report (?format=text for the blame table)
//	GET    /v1/designs           designs and functions the server accepts
//	GET    /healthz              liveness ("ok", or "draining" during shutdown)
//	GET    /metricz              server metrics, Prometheus text format
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad spec: "+err.Error(), 0)
			return
		}
		s, err := m.Submit(spec)
		switch {
		case errors.Is(err, ErrSaturated):
			writeError(w, http.StatusTooManyRequests, err.Error(), m.Cfg().RetryAfter)
			return
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err.Error(), m.Cfg().RetryAfter)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, err.Error(), 0)
			return
		}
		if streamRequested(r) {
			streamSession(w, r, s)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Location", "/v1/sessions/"+s.ID)
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, sessionSummary(s))
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		type listReply struct {
			Sessions []summary `json:"sessions"`
		}
		reply := listReply{Sessions: []summary{}}
		for _, s := range m.Sessions() {
			reply.Sessions = append(reply.Sessions, sessionSummary(s))
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, reply)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such session", 0)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, sessionSummary(s))
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such session", 0)
			return
		}
		m.Cancel(s.ID, ReasonCanceled)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, sessionSummary(s))
	})
	mux.HandleFunc("GET /v1/sessions/{id}/xray", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such session", 0)
			return
		}
		if !s.State().Terminal() {
			writeError(w, http.StatusConflict, "session still running; xray is available once the session is terminal", 0)
			return
		}
		report := s.Report()
		if report == nil || report.XRay == nil {
			writeError(w, http.StatusNotFound, "no xray report (set config.xray in the spec)", 0)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = report.XRay.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, report.XRay)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such session", 0)
			return
		}
		streamSession(w, r, s)
	})
	mux.HandleFunc("GET /v1/designs", func(w http.ResponseWriter, r *http.Request) {
		type designsReply struct {
			Designs   []string `json:"designs"`
			Functions []string `json:"functions"`
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, designsReply{
			Designs:   cxlfork.WorkloadDesigns,
			Functions: cxlfork.FunctionNames(),
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if m.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WriteMetricz(w)
	})
	return mux
}

// decodeSpec reads a spec the way POST /v1/sessions reads its body:
// the first JSON value in r, with unknown fields rejected.
func decodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec Spec
	err := dec.Decode(&spec)
	return spec, err
}

// streamRequested reports whether the submit call asked for an inline
// stream (?stream=1 or ?stream=true).
func streamRequested(r *http.Request) bool {
	v := r.URL.Query().Get("stream")
	return v == "1" || v == "true"
}

// streamSession writes the session's NDJSON frames — replaying what
// exists, then following live — until the terminal eof frame or client
// disconnect. Every frame is flushed as one line.
func streamSession(w http.ResponseWriter, r *http.Request, s *Session) {
	w.Header().Set("Content-Type", NDJSONContentType)
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	i := 0
	for {
		frames, changed, finished := s.next(i)
		for _, f := range frames {
			// Two writes, not append(f, '\n'): frames are shared by
			// every concurrent reader and must stay immutable.
			if _, err := w.Write(f); err != nil {
				return
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return
			}
			i++
		}
		if flusher != nil {
			flusher.Flush()
		}
		if finished && len(frames) == 0 {
			return
		}
		if finished {
			continue // drain any frames appended after the terminal flag
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// summary is the session-status JSON shape shared by the list, get,
// submit, and cancel replies.
type summary struct {
	ID     string             `json:"id"`
	State  State              `json:"state"`
	Frames int                `json:"frames"`
	Stream string             `json:"stream"`
	Report *cxlfork.RunReport `json:"report,omitempty"`
	Error  string             `json:"error,omitempty"`
}

func sessionSummary(s *Session) summary {
	out := summary{
		ID:     s.ID,
		State:  s.State(),
		Frames: s.Frames(),
		Stream: "/v1/sessions/" + s.ID + "/stream",
	}
	if out.State.Terminal() {
		out.Report = s.Report()
		out.Error = s.Err()
	}
	return out
}

// errorReply is the JSON error body of every non-2xx response.
type errorReply struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// writeError writes the JSON error body, setting Retry-After (whole
// seconds, minimum 1) when retryAfter is non-zero.
func writeError(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(status)
	writeJSON(w, errorReply{Error: msg, Status: status})
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
