package serve

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"cxlfork"
	"cxlfork/internal/xray"
)

// State is a session's lifecycle position.
type State string

// Session lifecycle states. Every session moves queued → running →
// one of the four terminal states.
const (
	// StateQueued: accepted, waiting for a running slot.
	StateQueued State = "queued"
	// StateRunning: the simulation is replaying.
	StateRunning State = "running"
	// StateDone: the trace drained; the report is complete.
	StateDone State = "done"
	// StateCanceled: stopped by DELETE or server drain; the report, if
	// any, is partial.
	StateCanceled State = "canceled"
	// StateTimeout: the wall-clock timeout stopped the replay.
	StateTimeout State = "timeout"
	// StateFailed: the spec was accepted but the run errored.
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s != StateQueued && s != StateRunning
}

// EOF frame reasons (the `reason` field of the terminal stream frame).
const (
	// ReasonComplete: the trace drained normally.
	ReasonComplete = "complete"
	// ReasonCanceled: the client canceled the session.
	ReasonCanceled = "canceled"
	// ReasonTimeout: the session's wall-clock timeout fired.
	ReasonTimeout = "timeout"
	// ReasonShutdown: the server drained the session on shutdown.
	ReasonShutdown = "shutdown"
	// ReasonError: the run failed; the frame carries the error.
	ReasonError = "error"
)

// Session is one admitted capacity-planning run: its spec, lifecycle
// state, frame log, and cancellation hook. All methods are safe for
// concurrent use; the frame log is append-only so any number of
// stream readers can replay and follow it.
type Session struct {
	// ID is the server-assigned session identifier ("s1", "s2", …).
	ID string

	spec Spec
	cfg  cxlfork.Config
	wl   cxlfork.Workload

	mu       sync.Mutex
	state    State
	frames   [][]byte // marshaled NDJSON frames, no trailing newline
	changed  chan struct{}
	report   *cxlfork.RunReport
	runErr   string
	reason   string // cancel reason, set before cancel() fires
	cancel   context.CancelFunc
	started  time.Time
	wallDur  time.Duration
	finished bool
}

func newSession(id string, spec Spec) *Session {
	cfg, wl := spec.build()
	return &Session{
		ID:      id,
		spec:    spec,
		cfg:     cfg,
		wl:      wl,
		state:   StateQueued,
		changed: make(chan struct{}),
	}
}

// State returns the current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Report returns the run report (nil until the session finishes; a
// canceled or timed-out session carries a partial report).
func (s *Session) Report() *cxlfork.RunReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// Err returns the run error string ("" unless StateFailed).
func (s *Session) Err() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}

// Frames returns the frame count so far.
func (s *Session) Frames() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// next returns the frames from index i onward, a channel closed on the
// next append or state change, and whether the session has emitted its
// final frame. Stream readers loop on it to replay and follow.
func (s *Session) next(i int) ([][]byte, <-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]byte
	if i < len(s.frames) {
		out = s.frames[i:]
	}
	return out, s.changed, s.finished
}

// signalLocked wakes every waiter; callers hold s.mu.
func (s *Session) signalLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

func (s *Session) append(frame any) {
	b, err := json.Marshal(frame)
	if err != nil {
		// Frames are built from plain structs and maps; a marshal
		// failure is a programming error.
		panic("serve: unmarshalable frame: " + err.Error())
	}
	s.mu.Lock()
	s.frames = append(s.frames, b)
	s.signalLocked()
	s.mu.Unlock()
}

// requestCancel records the cancel reason and stops the run. It is a
// no-op once the session is terminal; the first reason wins.
func (s *Session) requestCancel(reason string) bool {
	s.mu.Lock()
	if s.state.Terminal() {
		s.mu.Unlock()
		return false
	}
	if s.reason == "" {
		s.reason = reason
	}
	cancel := s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// finish appends the terminal frames and resolves the final state.
func (s *Session) finish(report *cxlfork.RunReport, runErr error, ctxErr error) {
	s.mu.Lock()
	reason := s.reason
	s.mu.Unlock()

	st := StateDone
	frameReason := ReasonComplete
	var errText string
	switch {
	case runErr == nil:
		// complete
	case errors.Is(runErr, cxlfork.ErrInterrupted):
		switch {
		case reason != "":
			frameReason = reason
			st = StateCanceled
		case errors.Is(ctxErr, context.DeadlineExceeded):
			frameReason = ReasonTimeout
			st = StateTimeout
		default:
			frameReason = ReasonCanceled
			st = StateCanceled
		}
	default:
		frameReason = ReasonError
		st = StateFailed
		errText = runErr.Error()
	}
	if frameReason == ReasonTimeout {
		st = StateTimeout
	}

	if report != nil {
		if report.XRay != nil {
			s.append(xrayFrame{Type: "xray", Session: s.ID, Report: report.XRay})
		}
		s.append(resultFrame{Type: "result", Session: s.ID, Report: report})
	}
	s.mu.Lock()
	s.report = report
	s.runErr = errText
	s.mu.Unlock()
	s.append(eofFrame{Type: "eof", Session: s.ID, Reason: frameReason, Error: errText, Frames: s.Frames() + 1})
	s.mu.Lock()
	s.state = st
	s.finished = true
	if !s.started.IsZero() {
		s.wallDur = time.Since(s.started)
	}
	s.signalLocked()
	s.mu.Unlock()
}

// abort terminates a session that never ran (queued at drain, or
// canceled before its slot arrived): the stream gets only its hello
// and eof frames.
func (s *Session) abort() {
	s.finish(nil, cxlfork.ErrInterrupted, nil)
}

// run executes the session's simulation on the calling goroutine,
// emitting sample/alert frames as the replay ticks and the terminal
// result/eof frames when it unwinds. ctx carries both the per-session
// timeout and cancellation.
func (s *Session) run(ctx context.Context) {
	s.mu.Lock()
	s.state = StateRunning
	s.started = time.Now()
	start := s.started
	s.signalLocked()
	s.mu.Unlock()

	pace := s.spec.Session.Pace
	opts := &cxlfork.RunOptions{
		OnSample: func(t cxlfork.Tick) {
			points := make(map[string]float64, len(t.Points))
			for _, p := range t.Points {
				points[p.Series] = p.Value
			}
			s.append(sampleFrame{
				Type:    "sample",
				Session: s.ID,
				Seq:     t.Seq,
				NowMS:   float64(t.Now) / float64(time.Millisecond),
				Points:  points,
			})
			for _, a := range t.Alerts {
				s.append(alertFrame{
					Type:      "alert",
					Session:   s.ID,
					NowMS:     float64(a.At) / float64(time.Millisecond),
					Objective: a.Objective,
					Firing:    a.Firing,
					Short:     a.Short,
					Long:      a.Long,
				})
			}
			if pace > 0 {
				// Live replay: hold this virtual instant until its wall
				// time arrives (pace = virtual seconds per wall second).
				target := start.Add(time.Duration(float64(t.Now) / pace))
				if wait := time.Until(target); wait > 0 {
					timer := time.NewTimer(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						timer.Stop()
					}
				}
			}
		},
		Interrupt: func() bool { return ctx.Err() != nil },
	}

	report, err := cxlfork.RunWorkload(s.cfg, s.wl, opts)
	s.finish(report, err, ctx.Err())
}

// helloFrame is the first frame of every session stream.
type helloFrame struct {
	Type      string  `json:"type"`
	Session   string  `json:"session"`
	Design    string  `json:"design"`
	RPS       float64 `json:"rps"`
	VirtualMS float64 `json:"virtual_ms"`
	Pace      float64 `json:"pace,omitempty"`
}

// sampleFrame carries one telemetry tick: every series' value at one
// virtual instant. Points marshal in sorted key order, so the frame
// bytes are deterministic.
type sampleFrame struct {
	Type    string             `json:"type"`
	Session string             `json:"session"`
	Seq     int64              `json:"seq"`
	NowMS   float64            `json:"now_ms"`
	Points  map[string]float64 `json:"points"`
}

// alertFrame carries one SLO burn-rate alert transition.
type alertFrame struct {
	Type      string  `json:"type"`
	Session   string  `json:"session"`
	NowMS     float64 `json:"now_ms"`
	Objective string  `json:"objective"`
	Firing    bool    `json:"firing"`
	Short     float64 `json:"short"`
	Long      float64 `json:"long"`
}

// xrayFrame carries the session's critical-path attribution report,
// emitted just before the result frame when the spec set config.xray.
type xrayFrame struct {
	Type    string       `json:"type"`
	Session string       `json:"session"`
	Report  *xray.Report `json:"report"`
}

// resultFrame carries the final (or partial, if interrupted) report.
type resultFrame struct {
	Type    string             `json:"type"`
	Session string             `json:"session"`
	Report  *cxlfork.RunReport `json:"report"`
}

// eofFrame is the last frame of every stream; Frames counts all frames
// including this one.
type eofFrame struct {
	Type    string `json:"type"`
	Session string `json:"session"`
	Reason  string `json:"reason"`
	Error   string `json:"error,omitempty"`
	Frames  int    `json:"frames"`
}
