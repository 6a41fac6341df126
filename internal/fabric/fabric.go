package fabric

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cxlfork/internal/des"
	"cxlfork/internal/params"
)

// Typed spec errors. Parse and Build wrap these with line context; test
// with errors.Is. The fuzz contract: malformed input must surface one
// of these, never a panic.
var (
	// ErrBadSpec marks a line that does not scan: unknown directive,
	// wrong field count, or an unparseable attribute.
	ErrBadSpec = errors.New("fabric: malformed spec line")
	// ErrDuplicateNode marks a node id declared twice (across all
	// kinds: host, switch, and device ids share one namespace).
	ErrDuplicateNode = errors.New("fabric: duplicate node id")
	// ErrUnknownNode marks a link endpoint that was never declared.
	ErrUnknownNode = errors.New("fabric: link endpoint not declared")
	// ErrBadLink marks an illegal link: zero bandwidth, non-positive
	// latency, zero streams or more than MaxStreams, a self-loop, a
	// duplicate pair, or a link that bypasses the switching layer
	// (host-host, host-device, device-device).
	ErrBadLink = errors.New("fabric: invalid link")
	// ErrDisconnected marks a host or device with no path to the other
	// side of the fabric: a device no host can reach is unusable, and
	// placement must be able to rely on every path existing.
	ErrDisconnected = errors.New("fabric: node unreachable")
	// ErrEmptySpec marks a spec missing one of the three layers; a
	// usable fabric needs at least one host, one switch, one device.
	ErrEmptySpec = errors.New("fabric: spec needs at least one host, one switch, and one device")
)

// MaxStreams bounds a link's streams= attribute. NewNet allocates one
// slot per stream of every link and each transfer scans its links'
// slots, so an unbounded count could make one spec line allocate
// terabytes. The cap is ten times params.FabricStreams (6); no
// topology in the repository declares more than 4.
const MaxStreams = 64

// SpecLink is one declared link. Zero-valued attributes mean "default":
// latency and per-page service resolve against the parameter set at
// Build time, streams against params.FabricStreams.
type SpecLink struct {
	A, B string
	// Lat is the link's one-way propagation latency (0 = default).
	Lat des.Time
	// GBps is the link bandwidth in GB/s (0 = default per-page cost).
	GBps float64
	// Streams is how many concurrent full-rate transfers the link
	// admits before queueing (0 = params.FabricStreams).
	Streams int
	// explicit marks a link that declared at least one attribute; a
	// topology with any explicit link is never Trivial.
	explicit bool
}

// Spec is a parsed, structurally validated topology declaration.
// Hosts, Switches, and Devices preserve declaration order — device
// order is the pool-device index order.
type Spec struct {
	Hosts    []string
	Switches []string
	Devices  []string
	Links    []SpecLink
}

// node kinds, used internally for link-shape validation.
const (
	kindHost = iota
	kindSwitch
	kindDevice
)

// Parse reads the line-oriented topology DSL:
//
//	# comment
//	host h0
//	switch sw0
//	switch sw1
//	device d0
//	link h0 sw0
//	link sw0 sw1 lat=800ns bw=32 streams=4
//	link sw1 d0
//
// Attributes: lat=<duration> (one-way link latency), bw=<GB/s>
// (link bandwidth), streams=<n> (concurrent full-rate transfers, at
// most MaxStreams).
// Omitted attributes resolve to parameter-derived defaults at Build.
// Every structural error is typed (see the Err variables) and carries
// the offending line; Parse never panics on any input.
func Parse(text string) (*Spec, error) {
	s := &Spec{}
	kinds := make(map[string]int)
	declare := func(id string, kind int) error {
		if id == "" || strings.ContainsAny(id, "=#") {
			return fmt.Errorf("%w: bad node id %q", ErrBadSpec, id)
		}
		if _, dup := kinds[id]; dup {
			return fmt.Errorf("%w: %q", ErrDuplicateNode, id)
		}
		kinds[id] = kind
		return nil
	}
	seenPair := make(map[[2]string]bool)

	for ln, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		ctx := func(err error) error { return fmt.Errorf("line %d: %w", ln+1, err) }
		switch f[0] {
		case "host", "switch", "device":
			if len(f) != 2 {
				return nil, ctx(fmt.Errorf("%w: %q wants exactly one id", ErrBadSpec, f[0]))
			}
			kind := map[string]int{"host": kindHost, "switch": kindSwitch, "device": kindDevice}[f[0]]
			if err := declare(f[1], kind); err != nil {
				return nil, ctx(err)
			}
			switch kind {
			case kindHost:
				s.Hosts = append(s.Hosts, f[1])
			case kindSwitch:
				s.Switches = append(s.Switches, f[1])
			case kindDevice:
				s.Devices = append(s.Devices, f[1])
			}
		case "link":
			if len(f) < 3 {
				return nil, ctx(fmt.Errorf("%w: link wants two endpoints", ErrBadSpec))
			}
			l := SpecLink{A: f[1], B: f[2]}
			for _, attr := range f[3:] {
				k, v, ok := strings.Cut(attr, "=")
				if !ok {
					return nil, ctx(fmt.Errorf("%w: attribute %q", ErrBadSpec, attr))
				}
				switch k {
				case "lat":
					d, err := time.ParseDuration(v)
					if err != nil {
						return nil, ctx(fmt.Errorf("%w: lat=%q: %v", ErrBadSpec, v, err))
					}
					if d <= 0 {
						return nil, ctx(fmt.Errorf("%w: non-positive latency %q", ErrBadLink, v))
					}
					l.Lat = des.Time(d)
				case "bw":
					g, err := strconv.ParseFloat(v, 64)
					if err != nil {
						return nil, ctx(fmt.Errorf("%w: bw=%q: %v", ErrBadSpec, v, err))
					}
					if g <= 0 {
						return nil, ctx(fmt.Errorf("%w: zero-bandwidth link (bw=%q)", ErrBadLink, v))
					}
					l.GBps = g
				case "streams":
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, ctx(fmt.Errorf("%w: streams=%q: %v", ErrBadSpec, v, err))
					}
					if n <= 0 {
						return nil, ctx(fmt.Errorf("%w: non-positive streams %q", ErrBadLink, v))
					}
					if n > MaxStreams {
						return nil, ctx(fmt.Errorf("%w: streams=%d above cap %d", ErrBadLink, n, MaxStreams))
					}
					l.Streams = n
				default:
					return nil, ctx(fmt.Errorf("%w: unknown attribute %q", ErrBadSpec, k))
				}
				l.explicit = true
			}
			if l.A == l.B {
				return nil, ctx(fmt.Errorf("%w: self-loop on %q", ErrBadLink, l.A))
			}
			pair := [2]string{l.A, l.B}
			if l.B < l.A {
				pair = [2]string{l.B, l.A}
			}
			if seenPair[pair] {
				return nil, ctx(fmt.Errorf("%w: duplicate link %s-%s", ErrBadLink, l.A, l.B))
			}
			seenPair[pair] = true
			s.Links = append(s.Links, l)
		default:
			return nil, ctx(fmt.Errorf("%w: unknown directive %q", ErrBadSpec, f[0]))
		}
	}

	if len(s.Hosts) == 0 || len(s.Switches) == 0 || len(s.Devices) == 0 {
		return nil, ErrEmptySpec
	}
	for _, l := range s.Links {
		ka, oka := kinds[l.A]
		kb, okb := kinds[l.B]
		if !oka {
			return nil, fmt.Errorf("%w: %q", ErrUnknownNode, l.A)
		}
		if !okb {
			return nil, fmt.Errorf("%w: %q", ErrUnknownNode, l.B)
		}
		// Every link must touch the switching layer: hosts and devices
		// only attach to switches.
		if ka != kindSwitch && kb != kindSwitch {
			return nil, fmt.Errorf("%w: %s-%s bypasses the switching layer", ErrBadLink, l.A, l.B)
		}
	}
	if err := s.checkConnected(kinds); err != nil {
		return nil, err
	}
	return s, nil
}

// checkConnected verifies every host and device reaches every device
// and host respectively (the fabric is one component over the declared
// links). A disconnected device would make placement on it a black
// hole, so it is a structural error, not a runtime surprise.
func (s *Spec) checkConnected(kinds map[string]int) error {
	adj := make(map[string][]string, len(kinds))
	for _, l := range s.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	// BFS from the first host; every declared node must be reached.
	seen := map[string]bool{s.Hosts[0]: true}
	queue := []string{s.Hosts[0]}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	for id := range kinds {
		if !seen[id] {
			return fmt.Errorf("%w: %q", ErrDisconnected, id)
		}
	}
	return nil
}

// link is a resolved topology edge.
type link struct {
	a, b    int // node indices
	lat     des.Time
	perPage des.Time
	streams int
}

// Topology is a built fabric graph: resolved links plus precomputed
// deterministic shortest paths from every host to every device.
// Shortest means lowest latency sum, ties broken by hop count and then
// by the lexicographic node-name path, so two isomorphic topologies
// that differ only in declaration order produce identical routes.
type Topology struct {
	spec     *Spec
	names    []string // node index -> id (hosts, then switches, then devices)
	kinds    []int
	index    map[string]int
	links    []link
	adj      [][]int // node -> incident link indices
	explicit bool

	// paths[h][d] is the host h -> device d route.
	paths  [][]route
	minLat des.Time

	// defEdgeLat / defPerPage are the parameter-derived link defaults,
	// kept so Net can price the flat single-hop baseline.
	defEdgeLat des.Time
	defPerPage des.Time
}

// route is one precomputed host->device path.
type route struct {
	links []int // link indices in traversal order
	lat   des.Time
	hops  int
}

// Build resolves the spec against a parameter set. Defaulted link
// attributes become: latency p.CXLLatency/2 (so the canonical
// host-switch-device path costs one CXL round trip), per-page service
// p.CXLReadPage (the measured CXL-to-DRAM page copy), and stream
// capacity params.FabricStreams. Explicit bandwidth converts to a per-page
// service time via the page size.
func (s *Spec) Build(p params.Params) (*Topology, error) {
	t := &Topology{
		spec:       s,
		index:      make(map[string]int),
		minLat:     0,
		defEdgeLat: p.CXLLatency / 2,
		defPerPage: p.CXLReadPage,
	}
	if t.defEdgeLat <= 0 {
		t.defEdgeLat = des.Nanosecond
	}
	if t.defPerPage <= 0 {
		t.defPerPage = des.Nanosecond
	}
	add := func(ids []string, kind int) {
		for _, id := range ids {
			t.index[id] = len(t.names)
			t.names = append(t.names, id)
			t.kinds = append(t.kinds, kind)
		}
	}
	add(s.Hosts, kindHost)
	add(s.Switches, kindSwitch)
	add(s.Devices, kindDevice)

	t.adj = make([][]int, len(t.names))
	for _, sl := range s.Links {
		l := link{
			a:       t.index[sl.A],
			b:       t.index[sl.B],
			lat:     sl.Lat,
			perPage: t.defPerPage,
			streams: sl.Streams,
		}
		if l.lat == 0 {
			l.lat = t.defEdgeLat
		}
		if sl.GBps > 0 {
			perPage := des.Time(float64(p.PageSize) / (sl.GBps * 1e9) * 1e9)
			if perPage < des.Nanosecond {
				perPage = des.Nanosecond
			}
			l.perPage = perPage
		}
		if l.streams == 0 {
			l.streams = params.FabricStreams
		}
		if l.streams <= 0 {
			l.streams = 1
		}
		if sl.explicit {
			t.explicit = true
		}
		idx := len(t.links)
		t.links = append(t.links, l)
		t.adj[l.a] = append(t.adj[l.a], idx)
		t.adj[l.b] = append(t.adj[l.b], idx)
		if t.minLat == 0 || l.lat < t.minLat {
			t.minLat = l.lat
		}
	}

	t.paths = make([][]route, len(s.Hosts))
	for h := range s.Hosts {
		t.paths[h] = t.routesFrom(t.index[s.Hosts[h]])
	}
	for h := range t.paths {
		for d, r := range t.paths[h] {
			if r.hops == 0 {
				return nil, fmt.Errorf("%w: no path %s -> %s", ErrDisconnected, s.Hosts[h], s.Devices[d])
			}
		}
	}
	return t, nil
}

// routesFrom runs a deterministic Dijkstra from node src and returns
// the route to every device. Priority is (latency, hops, lexicographic
// predecessor-name chain): with unique tie-breaking the chosen routes
// are independent of link declaration order and of switch renaming.
func (t *Topology) routesFrom(src int) []route {
	const inf = des.Time(1<<62 - 1)
	dist := make([]des.Time, len(t.names))
	hops := make([]int, len(t.names))
	via := make([]int, len(t.names)) // incoming link index, -1 at src
	done := make([]bool, len(t.names))
	for i := range dist {
		dist[i] = inf
		via[i] = -1
	}
	dist[src] = 0
	for {
		// Extract-min by (dist, hops, name); linear scan keeps the
		// selection order fully deterministic and the graphs are tiny.
		u := -1
		for v := range dist {
			if done[v] || dist[v] == inf {
				continue
			}
			if u == -1 || dist[v] < dist[u] ||
				(dist[v] == dist[u] && (hops[v] < hops[u] ||
					(hops[v] == hops[u] && t.names[v] < t.names[u]))) {
				u = v
			}
		}
		if u == -1 {
			break
		}
		done[u] = true
		for _, li := range t.adj[u] {
			l := t.links[li]
			v := l.a
			if v == u {
				v = l.b
			}
			nd, nh := dist[u]+l.lat, hops[u]+1
			if nd < dist[v] || (nd == dist[v] && nh < hops[v]) ||
				(nd == dist[v] && nh == hops[v] && via[v] >= 0 && t.linkName(li) < t.linkName(via[v])) {
				dist[v], hops[v], via[v] = nd, nh, li
			}
		}
	}

	out := make([]route, len(t.spec.Devices))
	for d := range t.spec.Devices {
		n := t.index[t.spec.Devices[d]]
		if dist[n] == inf {
			continue
		}
		var chain []int
		for at := n; at != src; {
			li := via[at]
			chain = append(chain, li)
			l := t.links[li]
			if l.a == at {
				at = l.b
			} else {
				at = l.a
			}
		}
		// chain is device->host; reverse to traversal order.
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		out[d] = route{links: chain, lat: dist[n], hops: hops[n]}
	}
	return out
}

// linkName is the canonical sorted endpoint-pair name of link li, the
// declaration-order-independent tie-breaker.
func (t *Topology) linkName(li int) string {
	l := t.links[li]
	a, b := t.names[l.a], t.names[l.b]
	if b < a {
		a, b = b, a
	}
	return a + "\x00" + b
}

// Hosts reports the host count.
func (t *Topology) Hosts() int { return len(t.spec.Hosts) }

// Switches reports the switch count.
func (t *Topology) Switches() int { return len(t.spec.Switches) }

// Devices reports the device count; device index order is spec
// declaration order and matches the cxl.DevicePool index.
func (t *Topology) Devices() int { return len(t.spec.Devices) }

// DeviceName returns device d's spec id.
func (t *Topology) DeviceName(d int) string { return t.spec.Devices[d] }

// Links reports the link count.
func (t *Topology) Links() int { return len(t.links) }

// PathLat returns the host h -> device d route latency (the sum of
// link latencies along the chosen shortest path).
func (t *Topology) PathLat(h, d int) des.Time { return t.paths[h][d].lat }

// PathHops returns the hop count of the h -> d route.
func (t *Topology) PathHops(h, d int) int { return t.paths[h][d].hops }

// MinLinkLatency is the fastest link in the fabric — the true minimum
// cross-node delivery latency. The fabric sweep reports it per cell.
func (t *Topology) MinLinkLatency() des.Time { return t.minLat }

// DeviceSwitch returns the name of the switch device d attaches to
// (the lexicographically first adjacent switch when a device is
// multi-homed) — the spread domain locality placement diversifies
// replicas across.
func (t *Topology) DeviceSwitch(d int) string {
	n := t.index[t.spec.Devices[d]]
	best := ""
	for _, li := range t.adj[n] {
		l := t.links[li]
		o := l.a
		if o == n {
			o = l.b
		}
		if t.kinds[o] == kindSwitch && (best == "" || t.names[o] < best) {
			best = t.names[o]
		}
	}
	return best
}

// DeviceCost is device d's mean route latency over all hosts — the
// scalar locality placement reweights the consistent-hash preference
// order by.
func (t *Topology) DeviceCost(d int) des.Time {
	var sum des.Time
	for h := range t.paths {
		sum += t.paths[h][d].lat
	}
	return sum / des.Time(len(t.paths))
}

// LinkLabel returns link li's human-readable label: both endpoint
// names sorted lexicographically and joined with "-" — the stable key
// attribution heatmaps render links under.
func (t *Topology) LinkLabel(li int) string {
	l := t.links[li]
	a, b := t.names[l.a], t.names[l.b]
	if b < a {
		a, b = b, a
	}
	return a + "-" + b
}

// LinkSwitch returns the switch that owns link li for heat
// aggregation: the lexicographically first switch endpoint. Every
// valid link touches the switching layer, so this never returns ""
// on a built topology.
func (t *Topology) LinkSwitch(li int) string {
	l := t.links[li]
	best := ""
	for _, n := range []int{l.a, l.b} {
		if t.kinds[n] == kindSwitch && (best == "" || t.names[n] < best) {
			best = t.names[n]
		}
	}
	return best
}

// Trivial reports whether the topology collapses to the flat
// single-hop model the rest of the simulator was calibrated on: one
// switch, one device, and every link at its parameter-derived default.
// A trivial topology adds no cost the flat model has not already
// charged, so the porter skips fabric accounting entirely and
// reproduces pre-topology results byte for byte (the degenerate-
// equivalence regression test pins this).
func (t *Topology) Trivial() bool {
	return len(t.spec.Switches) == 1 && len(t.spec.Devices) == 1 && !t.explicit
}
