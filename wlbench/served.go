package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"cxlfork"
	"cxlfork/internal/des"
	"cxlfork/internal/params"
	"cxlfork/internal/serve"
)

const giB = 1 << 30

// serverConfig is cxlserved's default admission configuration.
var serverConfig = serve.Config{
	MaxSessions:    2,
	MaxQueue:       4,
	SessionTimeout: 2 * time.Minute,
	MaxVirtual:     5 * time.Minute,
}

// setupsPerJob is how often served-mix starts and stops a second server
// before each session. setup_s is the median over the whole run, so a
// slow spell of the host weighs no more than its share of the window.
const setupsPerJob = 3

// blockSize is the number of sessions in one block of the served mix:
// one per design, and one per function group.
const blockSize = 4

// cycleLen is the number of sessions in one cycle of the served mix:
// every function group meets every design once.
const cycleLen = blockSize * blockSize

// functionGroups split the ten functions of the suite into the served
// mix's sessions. Each group holds one or two of the five functions with
// a large footprint (125–630 MiB) and small ones (24–33 MiB), so every
// session replays a large working set; sessions cost from about a third
// of a second to two and a half seconds, by group and design.
var functionGroups = [blockSize][]string{
	{"Bert", "Float"},
	{"Cnn", "Json"},
	{"HTML", "Linpack", "Pyaes"},
	{"Rnn", "BFS", "Chameleon"},
}

// mixSpec returns session i of the served mix's cycle with the given
// workload seed. Block k of the cycle pairs design j with group (j+k)
// mod 4, and its session j = k varies knob k: CXL latency, cores,
// 3-device replication at factor 2, or a halved node budget. Rates step
// through 50–200 rps and virtual durations through 5–10 s, each value
// once per cycle.
func mixSpec(i int, seed int64) serve.Spec {
	i %= cycleLen
	k, j := i/blockSize, i%blockSize
	s := serve.Spec{
		// The facade's default platform (cxlfork.DefaultConfig).
		Config: serve.ConfigSpec{Nodes: 2, NodeDRAMBytes: 6 * giB, CXLCapacityBytes: 8 * giB},
		Workload: serve.WorkloadSpec{
			Design:    cxlfork.WorkloadDesigns[j],
			RPS:       float64(50 + 10*((5*i+3)%cycleLen)),
			Duration:  serve.Duration(5*time.Second + time.Duration((7*i+1)%cycleLen)*5*time.Second/cycleLen),
			Functions: append([]string(nil), functionGroups[(j+k)%blockSize]...),
			Seed:      seed,
		},
	}
	if j == k {
		switch k {
		case 0:
			s.Config.CXLLatency = serve.Duration(250 * time.Nanosecond)
		case 1:
			s.Config.Cores = 8
		case 2:
			s.Config.Replication = serve.ReplicationSpec{Devices: 3, Factor: 2}
		case 3:
			s.Workload.NodeBudgetBytes = s.Config.NodeDRAMBytes / 2
		}
	}
	return s
}

// specGen yields the served mix's sessions in cycle order, each with a
// workload seed (its arrival trace and service-time jitter) drawn from
// the run's seed. The seed moves a session's cost by a few percent; the
// design and the function group move it up to eightfold. Fixing the
// cycle gives every run the same mix of work, so a run's job time does
// not hinge on which large functions a seed happened to draw.
type specGen struct {
	rng *rand.Rand
	n   int
}

func newSpecGen(seed int64) *specGen { return &specGen{rng: rand.New(rand.NewSource(seed))} }

// next returns the next spec.
func (g *specGen) next() serve.Spec {
	s := mixSpec(g.n, 1+g.rng.Int63n(1<<31-1))
	g.n++
	return s
}

// replicaJob is the in-process pipeline equivalent of a served spec: the
// platform parameters cxlfork.Config maps the generator's fields to, and
// the workload RunWorkload replays. Served sessions always stream
// samples, so telemetry is on.
func replicaJob(spec serve.Spec, id string) job {
	c, w := spec.Config, spec.Workload
	p := params.Default()
	if c.NodeDRAMBytes > 0 {
		p.NodeDRAMBytes = c.NodeDRAMBytes
	}
	if c.CXLCapacityBytes > 0 {
		p.CXLBytes = c.CXLCapacityBytes
	}
	if c.CXLLatency > 0 {
		p.CXLLatency = des.Time(c.CXLLatency)
	}
	if c.Cores > 0 {
		p.CoresPerNode = c.Cores
	}
	if c.Replication.Devices > 0 {
		p.CXLDevices = c.Replication.Devices
	}
	if c.Replication.Factor > 0 {
		p.ReplicationFactor = c.Replication.Factor
	}
	p.TelemetryEnabled = true
	return job{
		id: id, p: p, nodes: c.Nodes, funcs: w.Functions, design: w.Design,
		budget: w.NodeBudgetBytes, seed: w.Seed, traceSeed: w.Seed, rps: w.RPS,
		duration: des.Time(w.Duration),
	}
}

// server is an in-process cxlserved: the manager and HTTP handler on a
// loopback listener.
type server struct {
	mgr  *serve.Manager
	http *http.Server
	url  string
	done chan error
}

// newClient returns a client that holds at most one connection, reused.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// startServer starts a server and returns once it answers /healthz.
func startServer(client *http.Client) (*server, error) {
	mgr := serve.NewManager(serverConfig)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		mgr:  mgr,
		http: &http.Server{Handler: serve.NewHandler(mgr)},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	resp, err := client.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		s.stop()
		return nil, fmt.Errorf("healthz: status %d %q (%v)", resp.StatusCode, body, err)
	}
	return s, nil
}

// timeSetup starts a server on a connection of its own, times it until
// it answers /healthz, and stops it.
func timeSetup() (float64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	t0 := time.Now()
	s, err := startServer(client)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0).Seconds()
	return d, s.stop()
}

// stop drains the sessions, shuts the listener and waits for Serve to
// return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.mgr.Drain(ctx)
	if serr := s.http.Shutdown(ctx); err == nil {
		err = serr
	}
	<-s.done
	return err
}

// session is one POST ?stream=1 as the client saw it.
type session struct {
	post, hello, firstSample, result, eof time.Time

	status int
	frames int
	bytes  int64
	reason string // the eof frame's
	report *cxlfork.RunReport
}

// ok reports whether the session completed with a full report.
func (s *session) ok() bool {
	return s.status == http.StatusOK && s.reason == serve.ReasonComplete &&
		s.report != nil && !s.report.Interrupted && s.report.Fingerprint != ""
}

func (s *session) fingerprint() string {
	if s.report == nil {
		return ""
	}
	return s.report.Fingerprint
}

// postSession submits spec with an inline stream and reads the stream
// through its end.
func postSession(client *http.Client, url string, spec serve.Spec) (*session, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	s := &session{post: time.Now()}
	resp, err := client.Post(url+"/v1/sessions?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, err = io.Copy(io.Discard, resp.Body)
		return s, err
	}
	// Frames marshal their "type" field first, so a prefix names the
	// frame; only the result and eof frames are decoded.
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			s.frames++
			s.bytes += int64(len(line))
			switch {
			case bytes.HasPrefix(line, []byte(`{"type":"sample"`)):
				if s.firstSample.IsZero() {
					s.firstSample = now
				}
			case bytes.HasPrefix(line, []byte(`{"type":"hello"`)):
				s.hello = now
			case bytes.HasPrefix(line, []byte(`{"type":"result"`)):
				s.result = now
				var f struct {
					Report *cxlfork.RunReport `json:"report"`
				}
				if err := json.Unmarshal(line, &f); err != nil {
					return s, fmt.Errorf("result frame: %w", err)
				}
				s.report = f.Report
			case bytes.HasPrefix(line, []byte(`{"type":"eof"`)):
				s.eof = now
				var f struct {
					Reason string `json:"reason"`
				}
				if err := json.Unmarshal(line, &f); err != nil {
					return s, fmt.Errorf("eof frame: %w", err)
				}
				s.reason = f.Reason
			}
		}
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return s, err
		}
	}
}

// recordSession adds the session's stream phases as spans under parent.
func recordSession(rec *recorder, s *session, id string, parent int) {
	if rec == nil || s.eof.IsZero() || s.hello.IsZero() || s.firstSample.IsZero() || s.result.IsZero() {
		return
	}
	sid := rec.add("serve.session", id, parent, s.post, s.eof)
	rec.add("serve.queue", id, sid, s.post, s.hello)
	rec.add("serve.prep", id, sid, s.hello, s.firstSample)
	rec.add("serve.replay", id, sid, s.firstSample, s.result)
	rec.add("serve.tail", id, sid, s.result, s.eof)
}

// reportServeLayers reports the serve layer's per-layer metrics.
func reportServeLayers(b *bench, sessions []*session) {
	var frames, mb []float64
	for _, s := range sessions {
		frames = append(frames, float64(s.frames))
		mb = append(mb, float64(s.bytes)/1e6)
	}
	b.layer("serve.queue_s", median(b.rec.selfSeconds("serve.queue")), "s")
	b.layer("serve.prep_s", median(b.rec.selfSeconds("serve.prep")), "s")
	b.layer("serve.tail_s", median(b.rec.selfSeconds("serve.tail")), "s")
	b.layer("serve.frames", median(frames), "count")
	b.layer("serve.stream_mb", median(mb), "MB")
}

// servedMix runs the served-mix workload.
func servedMix(b *bench) error {
	client := newClient()
	defer client.CloseIdleConnections()

	t0 := time.Now()
	srv, err := startServer(client)
	if err != nil {
		return err
	}
	setups := []float64{time.Since(t0).Seconds()}

	gen := newSpecGen(b.seed)
	w := window{start: time.Now(), limit: b.window}
	var sessions []*session
	var replicas []*jobResult
	var fps []string
	var sessionS, untraced []float64
	var bySpec [cycleLen][]float64 // session seconds by the spec's place in the cycle
	// The first cycle runs whole, however long it takes, so every run
	// times every spec of the cycle at least once.
	for len(w.jobs) < cycleLen || w.more() {
		for i := 0; i < setupsPerJob; i++ {
			d, err := timeSetup()
			if err != nil {
				srv.stop()
				return err
			}
			setups = append(setups, d)
		}
		runtime.GC() // every job starts from a collected heap
		t0 := time.Now()
		id := fmt.Sprintf("session%d", len(w.jobs)+1)
		spec := gen.next()
		root := b.rec.begin("job", id, 0)
		s, err := postSession(client, srv.url, spec)
		if err != nil {
			srv.stop()
			return fmt.Errorf("%s: %w", id, err)
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		b.attempted++
		if !s.ok() {
			b.failed++
			b.wrong("%s: status %d, eof reason %q", id, s.status, s.reason)
		} else {
			d := s.result.Sub(s.post).Seconds()
			sessionS = append(sessionS, d)
			bySpec[len(w.jobs)%cycleLen] = append(bySpec[len(w.jobs)%cycleLen], d)
		}
		fps = append(fps, s.fingerprint())
		if b.rec != nil {
			recordSession(b.rec, s, id, root)
			rid := b.rec.begin("replica", id, root)
			r, err := runJob(b.rec, replicaJob(spec, id), rid)
			b.rec.end(rid)
			if err != nil {
				srv.stop()
				return fmt.Errorf("%s replica: %w", id, err)
			}
			if r.fingerprint != s.fingerprint() {
				b.wrong("%s: in-process replica fingerprint %s, served %s", id, r.fingerprint, s.fingerprint())
			}
			replicas = append(replicas, r)
		}
		b.rec.end(root)
		w.jobs = append(w.jobs, time.Since(t0).Seconds())
		sessions = append(sessions, s)
	}
	wall := time.Since(w.start).Seconds()
	if err := srv.stop(); err != nil {
		return err
	}
	if b.seed == b.pins.Served.Seed {
		for _, p := range checkServedPins(fps, b.pins) {
			b.wrong("%s", p)
		}
	}

	b.e2eMetric("setup_s", median(setups), "s")
	b.e2eMetric("job_s", cycleMean(bySpec[:]), "s")
	b.info("session_count", len(sessionS), "count")
	b.info("session_s_each", list(sessionS), "s")
	b.info("session_p50_s", median(sessionS), "s")
	if p, ok := tailPercentile(len(sessionS)); ok {
		b.info(fmt.Sprintf("session_p%d_s", p), quantile(sessionS, float64(p)/100), "s")
	}
	b.info("sessions_per_s", float64(len(sessions))/wall, "1/s")
	b.info("wall_s", wall, "s")
	b.info("error_rate", float64(b.failed)/float64(b.attempted), "ratio")
	b.info("digest", digest(fps), "fnv64")

	if b.rec != nil {
		reportServeLayers(b, sessions)
		reportJobLayers(b, replicas)
		b.layer("obs.overhead_x", 1, "x")
		b.layer("bench.trace_overhead_x", sum(w.jobs)/sum(untraced), "x")
	}
	return nil
}

// probeSpec is the fixed session the Azure workloads' traced runs time
// the serve layer with.
var probeSpec = serve.Spec{
	Config: serve.ConfigSpec{Nodes: 2, NodeDRAMBytes: 6 * giB, CXLCapacityBytes: 8 * giB},
	Workload: serve.WorkloadSpec{
		Design: "CXLfork-MoW", RPS: 50, Duration: serve.Duration(2 * time.Second),
		Functions: []string{"Float"}, Seed: 1,
	},
}

// serveProbe times the serve layer on probeSpec.
func serveProbe(b *bench) error {
	client := newClient()
	defer client.CloseIdleConnections()
	srv, err := startServer(client)
	if err != nil {
		return err
	}
	root := b.rec.begin("job", "serve-probe", 0)
	s, err := postSession(client, srv.url, probeSpec)
	if err == nil {
		recordSession(b.rec, s, "serve-probe", root)
	}
	b.rec.end(root)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	if !s.ok() {
		b.wrong("serve probe: status %d, eof reason %q", s.status, s.reason)
	}
	reportServeLayers(b, []*session{s})
	return nil
}
