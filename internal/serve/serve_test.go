package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"cxlfork"
	"cxlfork/internal/fabric"
)

// smallConfig keeps sessions fast: capacity-sized structures dominate
// setup cost, so tests shrink the platform, not the workload.
func smallConfig() ConfigSpec {
	return ConfigSpec{NodeDRAMBytes: 256 << 20, CXLCapacityBytes: 512 << 20, Cores: 2}
}

// fastSpec completes in tens of milliseconds of wall time.
func fastSpec() Spec {
	return Spec{
		Config: smallConfig(),
		Workload: WorkloadSpec{
			RPS:       200,
			Duration:  Duration(300 * time.Millisecond),
			Functions: []string{"Float"},
			Seed:      7,
		},
	}
}

// slowSpec paces the replay so slowly it cannot finish inside a test:
// the session parks at its first telemetry tick until canceled.
func slowSpec() Spec {
	s := fastSpec()
	s.Workload.Duration = Duration(2 * time.Second)
	s.Session.Pace = 0.002
	return s
}

func waitTerminal(t *testing.T, s *Session, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !s.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in state %s", s.ID, s.State())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitRunning(t *testing.T, s *Session, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for s.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("session %s never left the queue", s.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// frameHead is the decoded prefix shared by all frame types.
type frameHead struct {
	Type   string `json:"type"`
	Reason string `json:"reason"`
	Seq    int64  `json:"seq"`
	Frames int    `json:"frames"`
}

func decodeFrames(t *testing.T, s *Session) []frameHead {
	t.Helper()
	raw, _, _ := s.next(0)
	out := make([]frameHead, 0, len(raw))
	for i, b := range raw {
		var h frameHead
		if err := json.Unmarshal(b, &h); err != nil {
			t.Fatalf("frame %d is not JSON: %v (%q)", i, err, b)
		}
		out = append(out, h)
	}
	return out
}

func drainNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = m.Drain(ctx)
}

func TestSessionLifecycle(t *testing.T) {
	timeoutSpec := fastSpec()
	timeoutSpec.Session.Timeout = Duration(time.Millisecond)

	cases := []struct {
		name       string
		spec       Spec
		cancelMid  bool // cancel once the session is running
		wantState  State
		wantReason string
		wantReport bool
	}{
		{"complete", fastSpec(), false, StateDone, ReasonComplete, true},
		{"cancel-mid-run", slowSpec(), true, StateCanceled, ReasonCanceled, true},
		{"timeout", timeoutSpec, false, StateTimeout, ReasonTimeout, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager(Config{MaxSessions: 1})
			defer drainNow(t, m)
			s, err := m.Submit(tc.spec)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if tc.cancelMid {
				waitRunning(t, s, 10*time.Second)
				if !m.Cancel(s.ID, ReasonCanceled) {
					t.Fatal("Cancel found no live session")
				}
			}
			waitTerminal(t, s, 30*time.Second)
			if got := s.State(); got != tc.wantState {
				t.Fatalf("state = %s, want %s", got, tc.wantState)
			}
			fs := decodeFrames(t, s)
			if len(fs) < 2 || fs[0].Type != "hello" {
				t.Fatalf("frame log should open with hello: %+v", fs)
			}
			last := fs[len(fs)-1]
			if last.Type != "eof" || last.Reason != tc.wantReason {
				t.Fatalf("last frame = %+v, want eof/%s", last, tc.wantReason)
			}
			if last.Frames != len(fs) {
				t.Fatalf("eof frame count %d, want %d", last.Frames, len(fs))
			}
			if (s.Report() != nil) != tc.wantReport {
				t.Fatalf("report presence = %v, want %v", s.Report() != nil, tc.wantReport)
			}
			if tc.wantState == StateDone && s.Report().Interrupted {
				t.Fatal("completed run marked interrupted")
			}
			if tc.wantState != StateDone && s.Report() != nil && !s.Report().Interrupted {
				t.Fatal("stopped run not marked interrupted")
			}
		})
	}
}

func TestAdmissionControl(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1, MaxQueue: 1})
	defer drainNow(t, m)

	s1, err := m.Submit(slowSpec())
	if err != nil {
		t.Fatalf("Submit s1: %v", err)
	}
	s2, err := m.Submit(slowSpec())
	if err != nil {
		t.Fatalf("Submit s2: %v", err)
	}
	if s2.State() != StateQueued {
		t.Fatalf("s2 state = %s, want queued", s2.State())
	}
	if m.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want 1", m.QueueDepth())
	}
	if _, err := m.Submit(slowSpec()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third submit error = %v, want ErrSaturated", err)
	}

	// Cancel the queued session before its slot arrives: it must
	// still terminate with canceled frames when promoted.
	m.Cancel(s2.ID, ReasonCanceled)
	m.Cancel(s1.ID, ReasonCanceled)
	waitTerminal(t, s1, 30*time.Second)
	waitTerminal(t, s2, 30*time.Second)
	for _, s := range []*Session{s1, s2} {
		if s.State() != StateCanceled {
			t.Fatalf("%s state = %s, want canceled", s.ID, s.State())
		}
		fs := decodeFrames(t, s)
		if last := fs[len(fs)-1]; last.Type != "eof" || last.Reason != ReasonCanceled {
			t.Fatalf("%s last frame = %+v, want eof/canceled", s.ID, last)
		}
	}
}

func TestQueuePromotion(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1, MaxQueue: 2})
	defer drainNow(t, m)
	s1, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatalf("Submit s1: %v", err)
	}
	s2, err := m.Submit(fastSpec())
	if err != nil {
		t.Fatalf("Submit s2: %v", err)
	}
	waitTerminal(t, s1, 30*time.Second)
	waitTerminal(t, s2, 30*time.Second)
	for _, s := range []*Session{s1, s2} {
		if s.State() != StateDone || s.Report() == nil {
			t.Fatalf("%s state = %s report %v, want done with report", s.ID, s.State(), s.Report())
		}
	}
}

func TestDrain(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1, MaxQueue: 1})
	running, err := m.Submit(slowSpec())
	if err != nil {
		t.Fatalf("Submit running: %v", err)
	}
	queued, err := m.Submit(slowSpec())
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	waitRunning(t, running, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err = m.Drain(ctx)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain error = %v", err)
	}
	if !m.Draining() {
		t.Fatal("manager not draining after Drain")
	}
	if _, err := m.Submit(fastSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	for _, s := range []*Session{running, queued} {
		if !s.State().Terminal() {
			t.Fatalf("%s not terminal after Drain: %s", s.ID, s.State())
		}
		fs := decodeFrames(t, s)
		if last := fs[len(fs)-1]; last.Type != "eof" || last.Reason != ReasonShutdown {
			t.Fatalf("%s last frame = %+v, want eof/shutdown", s.ID, last)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown design", func(s *Spec) { s.Workload.Design = "QEMU" }},
		{"unknown function", func(s *Spec) { s.Workload.Functions = []string{"nope"} }},
		{"negative rps", func(s *Spec) { s.Workload.RPS = -1 }},
		{"excess rps", func(s *Spec) { s.Workload.RPS = MaxRPS + 1 }},
		{"negative weight", func(s *Spec) { s.Workload.Weights = map[string]float64{"Float": -1} }},
		{"negative pace", func(s *Spec) { s.Session.Pace = -1 }},
		{"negative timeout", func(s *Spec) { s.Session.Timeout = Duration(-time.Second) }},
		{"over virtual cap", func(s *Spec) { s.Workload.Duration = Duration(time.Hour) }},
		{"negative nodes", func(s *Spec) { s.Config.Nodes = -1 }},
		{"excess nodes", func(s *Spec) { s.Config.Nodes = MaxNodes + 1 }},
		{"negative node dram", func(s *Spec) { s.Config.NodeDRAMBytes = -1 }},
		{"excess node dram", func(s *Spec) { s.Config.NodeDRAMBytes = MaxPlatformBytes + 1 }},
		{"negative cxl capacity", func(s *Spec) { s.Config.CXLCapacityBytes = -4096 }},
		{"excess cxl capacity", func(s *Spec) { s.Config.CXLCapacityBytes = 1 << 62 }},
		{"oversized platform", func(s *Spec) { s.Config.Nodes, s.Config.NodeDRAMBytes = MaxNodes, 64<<30 }},
		{"default dram on many nodes", func(s *Spec) { s.Config.Nodes, s.Config.NodeDRAMBytes = 3, 0 }},
		{"excess checkpoint lanes", func(s *Spec) { s.Config.CheckpointLanes = MaxLanes + 1 }},
		{"excess restore lanes", func(s *Spec) { s.Config.RestoreLanes = MaxLanes + 1 }},
		{"excess devices", func(s *Spec) { s.Config.Replication.Devices = MaxDevices + 1 }},
		{"excess series cap", func(s *Spec) { s.Config.Telemetry.SeriesCap = MaxSeriesCap + 1 }},
		{"excess ticks", func(s *Spec) { s.Config.Telemetry.SampleEvery = Duration(10 * time.Microsecond) }},
		{"excess ticks at default duration", func(s *Spec) {
			s.Workload.Duration = 0
			s.Config.Telemetry.SampleEvery = Duration(time.Millisecond / 2)
		}},
		{"excess reclaim ticks", func(s *Spec) { s.Config.Capacity.ReclaimPeriod = Duration(time.Microsecond) }},
		{"excess repair ticks", func(s *Spec) { s.Config.Replication.RepairPeriod = Duration(time.Microsecond) }},
		{"excess repair ticks at default duration", func(s *Spec) {
			s.Workload.Duration = 0
			s.Config.Replication.RepairPeriod = Duration(time.Millisecond / 2)
		}},
		{"unknown evict policy", func(s *Spec) { s.Config.Capacity.EvictPolicy = "fifo" }},
		{"unknown placement", func(s *Spec) { s.Config.Fabric.Placement = "random" }},
		{"all-zero weights", func(s *Spec) { s.Workload.Weights = map[string]float64{"Float": 0} }},
		{"all-zero weights over the suite", func(s *Spec) {
			s.Workload.Functions = nil
			s.Workload.Weights = map[string]float64{}
			for _, fn := range cxlfork.FunctionNames() {
				s.Workload.Weights[fn] = 0
			}
		}},
		{"unparseable topology", func(s *Spec) { s.Config.Fabric.Topology = "not a topology at all" }},
		{"terabyte of link streams", func(s *Spec) {
			s.Config.Fabric.Topology = "host h0\nswitch s0\ndevice d0\nlink h0 s0 streams=1000000000000\nlink d0 s0\n"
		}},
		{"excess topology hosts", func(s *Spec) { s.Config.Fabric.Topology = fabric.GridSpec(MaxNodes+1, 1, 1) }},
		{"excess topology switches", func(s *Spec) { s.Config.Fabric.Topology = fabric.GridSpec(1, MaxSwitches+1, 1) }},
		{"excess topology devices", func(s *Spec) { s.Config.Fabric.Topology = fabric.GridSpec(1, 1, MaxDevices+1) }},
		{"excess topology links", func(s *Spec) { s.Config.Fabric.Topology = meshSpec(MaxNodes, MaxNodes, MaxDevices) }},
	}
	m := NewManager(Config{})
	maxVirtual := m.Cfg().MaxVirtual
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := fastSpec()
			tc.mut(&spec)
			// Admission alone first: Submit runs whatever it admits,
			// and an oversized spec must never run.
			if err := spec.Validate(maxVirtual); err == nil {
				t.Fatal("Validate admitted an invalid spec")
			}
			if _, err := m.Submit(spec); err == nil {
				t.Fatal("Submit accepted an invalid spec")
			}
		})
	}
}

// meshSpec links every host and every device to every one of switches
// switches: hosts×switches + devices×switches links.
func meshSpec(hosts, switches, devices int) string {
	var b strings.Builder
	for _, n := range []struct {
		kind, id string
		count    int
	}{{"host", "h", hosts}, {"switch", "s", switches}, {"device", "d", devices}} {
		for i := 0; i < n.count; i++ {
			fmt.Fprintf(&b, "%s %s%d\n", n.kind, n.id, i)
		}
	}
	for sw := 0; sw < switches; sw++ {
		for h := 0; h < hosts; h++ {
			fmt.Fprintf(&b, "link h%d s%d\n", h, sw)
		}
		for d := 0; d < devices; d++ {
			fmt.Fprintf(&b, "link d%d s%d\n", d, sw)
		}
	}
	return b.String()
}

// TestValidateAdmitsDocumentedPlatforms pins the other side of the
// platform caps: the empty config, the served example spec, and the
// facade's default platform (2 nodes, 6 GiB DRAM, 8 GiB CXL) all pass,
// and so do the default sampling, reclaim and repair periods over the
// server's five-minute cap.
func TestValidateAdmitsDocumentedPlatforms(t *testing.T) {
	blob, err := os.ReadFile("../../examples/served/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var example Spec
	if err := json.Unmarshal(blob, &example); err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{
		"empty":   {},
		"example": example,
		"facade default": {Config: ConfigSpec{
			Nodes: 2, NodeDRAMBytes: 6 << 30, CXLCapacityBytes: 8 << 30,
		}},
		"at cap": {Config: ConfigSpec{Nodes: 4, NodeDRAMBytes: 64 << 30, CXLCapacityBytes: 16 << 30}},
		"at count caps": {Config: ConfigSpec{
			CheckpointLanes: MaxLanes, RestoreLanes: MaxLanes,
			Replication: ReplicationSpec{Devices: MaxDevices},
			Telemetry:   TelemetrySpec{SeriesCap: MaxSeriesCap},
		}},
		"default periods at the virtual cap": {Workload: WorkloadSpec{Duration: Duration(5 * time.Minute)}},
		"at tick cap": {
			Config: ConfigSpec{
				Capacity:    CapacitySpec{ReclaimPeriod: Duration(time.Millisecond)},
				Replication: ReplicationSpec{RepairPeriod: Duration(time.Millisecond)},
				Telemetry:   TelemetrySpec{SampleEvery: Duration(time.Millisecond)},
			},
			Workload: WorkloadSpec{Duration: Duration(MaxTicks * time.Millisecond)},
		},
		"topology at every cap": {Config: ConfigSpec{Fabric: FabricSpec{
			Topology: fabric.GridSpec(MaxNodes, MaxSwitches, MaxDevices),
		}}},
		"topology at the link cap": {Config: ConfigSpec{Fabric: FabricSpec{
			Topology: meshSpec(MaxNodes, MaxLinks/(MaxNodes+MaxDevices), MaxDevices),
		}}},
		"named policies, partly zero mix": {
			Config: ConfigSpec{
				Capacity: CapacitySpec{EvictPolicy: "lru"},
				Fabric:   FabricSpec{Placement: "locality"},
			},
			Workload: WorkloadSpec{Weights: map[string]float64{"Float": 0}},
		},
	}
	for name, spec := range specs {
		if err := spec.Validate(0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"150ms"`), &d); err != nil || time.Duration(d) != 150*time.Millisecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1500000`), &d); err != nil || time.Duration(d) != 1500*time.Microsecond {
		t.Fatalf("numeric form: %v %v", d, err)
	}
	b, err := json.Marshal(Duration(2 * time.Second))
	if err != nil || string(b) != `"2s"` {
		t.Fatalf("marshal: %s %v", b, err)
	}
	if err := json.Unmarshal([]byte(`"nope"`), &d); err == nil {
		t.Fatal("accepted a malformed duration")
	}
}
