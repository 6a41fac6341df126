package fabric

import (
	"errors"
	"fmt"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/params"
)

// twoSwitch is the canonical hand-written fixture: two hosts and two
// devices split across two switches joined by a slow narrow trunk.
const twoSwitch = `
# two-switch fixture
host h0
host h1
switch sw0
switch sw1
device d0
device d1
link h0 sw0
link h1 sw1
link d0 sw0
link d1 sw1
link sw0 sw1 lat=800ns bw=8 streams=2
`

func build(t *testing.T, spec string) *Topology {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	topo, err := s.Build(params.Default())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return topo
}

func TestParseTypedErrors(t *testing.T) {
	cases := []struct {
		name, spec string
		want       error
	}{
		{"empty", "", ErrEmptySpec},
		{"comment only", "# nothing\n\n", ErrEmptySpec},
		{"no device", "host h0\nswitch sw0\nlink h0 sw0\n", ErrEmptySpec},
		{"bad kind", "gadget g0\n", ErrBadSpec},
		{"host arity", "host\n", ErrBadSpec},
		{"link arity", "host h0\nswitch s0\ndevice d0\nlink h0\n", ErrBadSpec},
		{"bad lat", "host h0\nswitch s0\ndevice d0\nlink h0 s0 lat=fast\nlink d0 s0\n", ErrBadSpec},
		{"bad bw", "host h0\nswitch s0\ndevice d0\nlink h0 s0 bw=wide\nlink d0 s0\n", ErrBadSpec},
		{"bad streams", "host h0\nswitch s0\ndevice d0\nlink h0 s0 streams=many\nlink d0 s0\n", ErrBadSpec},
		{"zero streams", "host h0\nswitch s0\ndevice d0\nlink h0 s0 streams=0\nlink d0 s0\n", ErrBadLink},
		{"streams above cap", "host h0\nswitch s0\ndevice d0\nlink h0 s0 streams=65\nlink d0 s0\n", ErrBadLink},
		{"terabyte of streams", "host h0\nswitch s0\ndevice d0\nlink h0 s0 streams=1000000000000\nlink d0 s0\n", ErrBadLink},
		{"negative lat", "host h0\nswitch s0\ndevice d0\nlink h0 s0 lat=-5ns\nlink d0 s0\n", ErrBadLink},
		{"zero bandwidth", "host h0\nswitch s0\ndevice d0\nlink h0 s0 bw=0\nlink d0 s0\n", ErrBadLink},
		{"unknown attr", "host h0\nswitch s0\ndevice d0\nlink h0 s0 mtu=9000\nlink d0 s0\n", ErrBadSpec},
		{"dup host", "host h0\nhost h0\nswitch s0\ndevice d0\nlink h0 s0\nlink d0 s0\n", ErrDuplicateNode},
		{"dup across kinds", "host n0\nswitch s0\ndevice n0\nlink n0 s0\n", ErrDuplicateNode},
		{"unknown endpoint", "host h0\nswitch s0\ndevice d0\nlink h0 s0\nlink d0 s9\n", ErrUnknownNode},
		{"host-host link", "host h0\nhost h1\nswitch s0\ndevice d0\nlink h0 h1\nlink h0 s0\nlink d0 s0\n", ErrBadLink},
		{"host-device link", "host h0\nswitch s0\ndevice d0\nlink h0 d0\nlink h0 s0\nlink d0 s0\n", ErrBadLink},
		{"self loop", "host h0\nswitch s0\ndevice d0\nlink s0 s0\nlink h0 s0\nlink d0 s0\n", ErrBadLink},
		{"duplicate link", "host h0\nswitch s0\ndevice d0\nlink h0 s0\nlink h0 s0\nlink d0 s0\n", ErrBadLink},
		{"disconnected device", "host h0\nswitch s0\ndevice d0\ndevice d1\nlink h0 s0\nlink d0 s0\n", ErrDisconnected},
		{"disconnected host", "host h0\nhost h1\nswitch s0\ndevice d0\nlink h0 s0\nlink d0 s0\n", ErrDisconnected},
		{"split fabric", "host h0\nhost h1\nswitch s0\nswitch s1\ndevice d0\ndevice d1\nlink h0 s0\nlink d0 s0\nlink h1 s1\nlink d1 s1\n", ErrDisconnected},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestParseAcceptsFixture(t *testing.T) {
	s, err := Parse(twoSwitch)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Hosts) != 2 || len(s.Switches) != 2 || len(s.Devices) != 2 {
		t.Fatalf("node counts: %d/%d/%d", len(s.Hosts), len(s.Switches), len(s.Devices))
	}
	if len(s.Links) != 5 {
		t.Fatalf("links: %d", len(s.Links))
	}
}

// TestParseAcceptsStreamsAtCap: the streams bound rejects only counts
// above MaxStreams.
func TestParseAcceptsStreamsAtCap(t *testing.T) {
	s, err := Parse(fmt.Sprintf("host h0\nswitch s0\ndevice d0\nlink h0 s0 streams=%d\nlink d0 s0\n", MaxStreams))
	if err != nil {
		t.Fatal(err)
	}
	if s.Links[0].Streams != MaxStreams {
		t.Fatalf("streams = %d, want %d", s.Links[0].Streams, MaxStreams)
	}
}

func TestPathsAndCosts(t *testing.T) {
	topo := build(t, twoSwitch)
	p := params.Default()
	edge := p.CXLLatency / 2

	// Switch-local restore: host edge + device edge, two hops.
	if got := topo.PathLat(0, 0); got != 2*edge {
		t.Fatalf("h0→d0 lat %v, want %v", got, 2*edge)
	}
	if got := topo.PathHops(0, 0); got != 2 {
		t.Fatalf("h0→d0 hops %d", got)
	}
	// Cross-switch restore pays the declared trunk latency.
	want := 2*edge + 800
	if got := topo.PathLat(0, 1); got != des.Time(want) {
		t.Fatalf("h0→d1 lat %v, want %v", got, want)
	}
	if got := topo.PathHops(0, 1); got != 3 {
		t.Fatalf("h0→d1 hops %d", got)
	}
	// Symmetric by construction.
	if topo.PathLat(1, 0) != topo.PathLat(0, 1) {
		t.Fatal("path latency not symmetric")
	}
	// DeviceCost is the mean over hosts, so both devices tie here.
	if topo.DeviceCost(0) != topo.DeviceCost(1) {
		t.Fatal("symmetric fixture should tie on device cost")
	}
	if topo.MinLinkLatency() != edge {
		t.Fatalf("min link latency %v, want %v", topo.MinLinkLatency(), edge)
	}
}

func TestDijkstraPrefersFasterDetour(t *testing.T) {
	// Two routes from h0 to d0: a direct slow switch hop chain and a
	// faster two-trunk detour. Lowest latency must win over fewer hops.
	topo := build(t, `
host h0
switch s0
switch s1
switch s2
device d0
link h0 s0
link s0 s1 lat=2000ns
link s0 s2 lat=300ns
link s2 s1 lat=300ns
link d0 s1
`)
	p := params.Default()
	edge := p.CXLLatency / 2
	want := edge + 300 + 300 + edge // via s2
	if got := topo.PathLat(0, 0); got != des.Time(want) {
		t.Fatalf("detour lat %v, want %v", got, want)
	}
	if got := topo.PathHops(0, 0); got != 4 {
		t.Fatalf("detour hops %d, want 4", got)
	}
}

func TestTrivialGate(t *testing.T) {
	if !build(t, GridSpec(4, 1, 1)).Trivial() {
		t.Fatal("degenerate grid must be Trivial")
	}
	for _, spec := range []string{
		GridSpec(4, 2, 1), // two switches
		GridSpec(4, 1, 2), // two devices
		"host h0\nswitch s0\ndevice d0\nlink h0 s0 lat=100ns\nlink d0 s0\n", // explicit attr
	} {
		if build(t, spec).Trivial() {
			t.Fatalf("non-degenerate spec reported Trivial:\n%s", spec)
		}
	}
}

func TestGridSpecShapes(t *testing.T) {
	topo := build(t, GridSpec(4, 2, 6))
	if topo.Hosts() != 4 || topo.Switches() != 2 || topo.Devices() != 6 {
		t.Fatalf("grid shape %d/%d/%d", topo.Hosts(), topo.Switches(), topo.Devices())
	}
	// Round-robin: even devices behind sw0, odd behind sw1.
	for d := 0; d < 6; d++ {
		want := "sw0"
		if d%2 == 1 {
			want = "sw1"
		}
		if got := topo.DeviceSwitch(d); got != want {
			t.Fatalf("d%d on %s, want %s", d, got, want)
		}
	}
	// 4 host edges + 6 device edges + 1 trunk.
	if topo.Links() != 11 {
		t.Fatalf("links %d, want 11", topo.Links())
	}
	if topo.DeviceName(2) != "d2" {
		t.Fatalf("device name %q", topo.DeviceName(2))
	}
}

// TestRelabelInvariance builds two isomorphic specs whose node names and
// declaration orders differ and checks every routing observable matches:
// placement heuristics built on these must not depend on spelling.
func TestRelabelInvariance(t *testing.T) {
	a := build(t, twoSwitch)
	b := build(t, `
device mem_B
device mem_A
switch leaf1
switch leaf0
host alpha
host beta
link beta leaf1
link mem_B leaf1
link leaf0 leaf1 lat=800ns bw=8 streams=2
link alpha leaf0
link mem_A leaf0
`)
	// Index mapping: a.h0→b.alpha(0? hosts preserve declaration order:
	// alpha is declared first) — map by structure: alpha/leaf0/mem_A
	// mirror h0/sw0/d0, with b's device order swapped (mem_B first).
	perm := map[int]int{0: 1, 1: 0} // a device i ↔ b device perm[i]
	for h := 0; h < 2; h++ {
		for d := 0; d < 2; d++ {
			if a.PathLat(h, d) != b.PathLat(h, perm[d]) {
				t.Fatalf("relabeled path lat differs at h%d d%d", h, d)
			}
			if a.PathHops(h, d) != b.PathHops(h, perm[d]) {
				t.Fatalf("relabeled hops differ at h%d d%d", h, d)
			}
		}
	}
	if a.MinLinkLatency() != b.MinLinkLatency() {
		t.Fatal("relabeled min link latency differs")
	}
}
