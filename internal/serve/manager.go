package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Admission errors. The HTTP layer maps ErrSaturated to 429 +
// Retry-After and ErrDraining to 503.
var (
	// ErrSaturated: every running slot is busy and the wait queue is
	// full. The client should retry after Config.RetryAfter.
	ErrSaturated = errors.New("serve: saturated (running slots and queue full)")
	// ErrDraining: the server is shutting down and admits nothing new.
	ErrDraining = errors.New("serve: draining")
)

// Config bounds the manager. Zero values take the defaults documented
// per field.
type Config struct {
	// MaxSessions is the number of concurrently running simulations
	// (default 2). Each session is a full cluster replay, so this is
	// the server's real capacity knob.
	MaxSessions int
	// MaxQueue is the admission queue depth beyond the running slots
	// (default 4); past it, Submit returns ErrSaturated.
	MaxQueue int
	// SessionTimeout caps each session's wall-clock runtime
	// (default 2m); Spec.Session.Timeout overrides it per session.
	SessionTimeout time.Duration
	// MaxVirtual caps Workload.Duration at admission (default 5m;
	// negative = uncapped).
	MaxVirtual time.Duration
	// RetryAfter is the hint returned with ErrSaturated rejections
	// (default 2s).
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 2 * time.Minute
	}
	if c.MaxVirtual == 0 {
		c.MaxVirtual = 5 * time.Minute
	}
	if c.MaxVirtual < 0 {
		c.MaxVirtual = 0
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	return c
}

// maxFinished bounds the finished-session history. Past it, the
// manager forgets the oldest finished sessions, so a long-running
// server does not keep every session's frame log forever.
const maxFinished = 64

// Manager is the admission controller: it owns every session, runs at
// most Config.MaxSessions concurrently, queues up to Config.MaxQueue
// more in FIFO order, and rejects beyond that. It remembers every
// running and queued session and the maxFinished most recently
// finished ones. All methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	start time.Time

	mu       sync.Mutex
	byID     map[string]*Session
	order    []*Session // admission order
	finished []*Session // finish order, at most maxFinished
	queue    []*Session
	running  int
	draining bool
	seq      int
	wg       sync.WaitGroup

	accepted  int64
	completed int64
	canceled  int64
	timedOut  int64
	failed    int64
	rejected  int64
	wallNS    int64
	virtNS    int64
}

// NewManager returns a manager with cfg's bounds (defaults applied).
func NewManager(cfg Config) *Manager {
	return &Manager{
		cfg:   cfg.withDefaults(),
		start: time.Now(),
		byID:  make(map[string]*Session),
	}
}

// Cfg returns the manager's effective (default-applied) config.
func (m *Manager) Cfg() Config { return m.cfg }

// Submit validates and admits one spec. It returns the session
// (already running, or queued for the next free slot), ErrSaturated
// when both the running slots and the queue are full, ErrDraining
// during shutdown, or a validation error.
func (m *Manager) Submit(spec Spec) (*Session, error) {
	if err := spec.Validate(m.cfg.MaxVirtual); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if m.running >= m.cfg.MaxSessions && len(m.queue) >= m.cfg.MaxQueue {
		m.rejected++
		return nil, ErrSaturated
	}
	m.seq++
	s := newSession(fmt.Sprintf("s%d", m.seq), spec)
	m.byID[s.ID] = s
	m.order = append(m.order, s)
	m.accepted++
	wl := s.wl
	s.append(helloFrame{
		Type:      "hello",
		Session:   s.ID,
		Design:    designOrDefault(wl.Design),
		RPS:       rpsOrDefault(wl.RPS),
		VirtualMS: float64(durationOrDefault(wl.Duration)) / float64(time.Millisecond),
		Pace:      spec.Session.Pace,
	})
	if m.running < m.cfg.MaxSessions {
		m.startLocked(s)
	} else {
		m.queue = append(m.queue, s)
	}
	return s, nil
}

func designOrDefault(d string) string {
	if d == "" {
		return "CXLfork"
	}
	return d
}

func rpsOrDefault(r float64) float64 {
	if r <= 0 {
		return 60
	}
	return r
}

func durationOrDefault(d time.Duration) time.Duration {
	if d <= 0 {
		return 10 * time.Second
	}
	return d
}

// startLocked moves s into a running slot; callers hold m.mu.
func (m *Manager) startLocked(s *Session) {
	m.running++
	m.wg.Add(1)
	timeout := m.cfg.SessionTimeout
	if t := time.Duration(s.spec.Session.Timeout); t > 0 {
		timeout = t
	}
	go m.runSession(s, timeout)
}

// runSession drives one session to completion, then accounts it and
// starts the next queued session.
func (m *Manager) runSession(s *Session, timeout time.Duration) {
	defer m.wg.Done()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	s.mu.Lock()
	s.cancel = cancel
	alreadyCanceled := s.reason != ""
	s.mu.Unlock()
	if alreadyCanceled {
		// Canceled while queued, before the slot arrived.
		s.abort()
	} else {
		s.run(ctx)
	}

	m.mu.Lock()
	m.running--
	switch s.State() {
	case StateDone:
		m.completed++
	case StateCanceled:
		m.canceled++
	case StateTimeout:
		m.timedOut++
	default:
		m.failed++
	}
	if rep := s.Report(); rep != nil {
		m.wallNS += int64(s.wallDur)
		m.virtNS += int64(rep.VirtualDuration)
	}
	m.retireLocked(s)
	if !m.draining && len(m.queue) > 0 && m.running < m.cfg.MaxSessions {
		next := m.queue[0]
		m.queue = m.queue[1:]
		m.startLocked(next)
	}
	m.mu.Unlock()
}

// retireLocked records s as finished and forgets the oldest finished
// session beyond maxFinished: its ID stops resolving, but readers that
// already hold it keep a complete session. Callers hold m.mu.
func (m *Manager) retireLocked(s *Session) {
	m.finished = append(m.finished, s)
	if len(m.finished) <= maxFinished {
		return
	}
	old := m.finished[0]
	m.finished = slices.Delete(m.finished, 0, 1)
	delete(m.byID, old.ID)
	m.order = slices.DeleteFunc(m.order, func(o *Session) bool { return o == old })
}

// Get returns a session by ID. Forgotten finished sessions are not
// found.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.byID[id]
	return s, ok
}

// Sessions returns the running, queued, and most recently finished
// sessions in admission order.
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Session(nil), m.order...)
}

// Cancel stops a session by ID with the given reason (ReasonCanceled
// for client cancels). It reports whether a live session was found; a
// queued session is aborted when its slot arrives.
func (m *Manager) Cancel(id, reason string) bool {
	s, ok := m.Get(id)
	if !ok {
		return false
	}
	return s.requestCancel(reason)
}

// Draining reports whether Drain has been called.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// QueueDepth returns the number of admitted-but-waiting sessions.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// Running returns the number of sessions currently replaying.
func (m *Manager) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running
}

// Drain shuts the manager down: new submissions are rejected with
// ErrDraining, queued sessions are aborted with reason "shutdown", and
// running sessions are given until ctx's deadline to finish before
// being canceled with the same reason. Drain returns once every
// session has emitted its terminal frames; the error is ctx's if the
// deadline forced cancellation.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	queued := m.queue
	m.queue = nil
	m.mu.Unlock()

	for _, s := range queued {
		s.requestCancel(ReasonShutdown)
		s.abort()
		m.mu.Lock()
		m.canceled++
		m.retireLocked(s)
		m.mu.Unlock()
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline hit: force-cancel stragglers, then wait for their
	// terminal frames — the engine unwinds at the next telemetry tick.
	for _, s := range m.Sessions() {
		s.requestCancel(ReasonShutdown)
	}
	<-done
	return ctx.Err()
}
