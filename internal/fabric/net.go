package fabric

import (
	"fmt"

	"cxlfork/internal/des"
	"cxlfork/internal/telemetry"
)

// Net layers per-link in-flight contention over a Topology. Each link
// admits Streams concurrent full-rate transfers; a transfer that finds
// every slot busy queues behind the earliest-free one. The model is
// analytic — link state mutates inline while porter events execute, no
// extra DES events are scheduled — so event ordering, and therefore
// the byte-identical worker-count fingerprints, are untouched.
//
// A transfer of P pages along a path is cut-through: on each link it
// claims the earliest-free stream slot (lowest index on ties), holds
// it for P × perPage, and the head advances after the link latency.
// Completion is head arrival at the device plus the bottleneck link's
// service time. Because this package is additive over the flat model
// the rest of the simulator already charges, Restore reports only the
// differential versus the flat single-hop baseline (two default edge
// latencies plus P default page services), clamped at zero.
type Net struct {
	topo  *Topology
	slots [][]des.Time // per link: busy-until per stream slot

	transfers  int64
	queued     int64
	queueDelay des.Time
	charged    des.Time

	// obs, when set, observes every per-link stream-slot claim with
	// its queue delay and service time. Purely informational: the
	// callback runs after the link state is already updated and must
	// not (and cannot, given the signature) change any computed
	// duration — the attribution layer's read-only tap.
	obs func(link int, wait, service des.Time)
}

// SetObserver installs a per-link claim observer: fn is called once
// per link per transfer with the slot queue delay and page service
// time just charged. Passing nil removes the observer. Observation is
// read-only — transfer pricing is identical with or without one.
func (n *Net) SetObserver(fn func(link int, wait, service des.Time)) { n.obs = fn }

// NewNet wraps a built topology with fresh (idle) link state.
func NewNet(t *Topology) *Net {
	n := &Net{topo: t, slots: make([][]des.Time, len(t.links))}
	for i, l := range t.links {
		n.slots[i] = make([]des.Time, l.streams)
	}
	return n
}

// Topology returns the graph the net runs over.
func (n *Net) Topology() *Topology { return n.topo }

// Transfer moves pages from device d to host h starting at virtual
// time at, mutating link occupancy, and returns the total transfer
// duration. Paths are symmetric, so the same call prices a checkpoint
// push host→device.
func (n *Net) Transfer(h, d, pages int, at des.Time) des.Time {
	if pages <= 0 {
		pages = 1
	}
	r := n.topo.paths[h][d]
	head := at
	var bottleneck des.Time
	for _, li := range r.links {
		l := n.topo.links[li]
		slots := n.slots[li]
		s := 0
		for i := 1; i < len(slots); i++ {
			if slots[i] < slots[s] {
				s = i
			}
		}
		start := head
		var wait des.Time
		if slots[s] > start {
			n.queued++
			wait = slots[s] - start
			n.queueDelay += wait
			start = slots[s]
		}
		service := des.Time(pages) * l.perPage
		slots[s] = start + service
		head = start + l.lat
		if l.perPage > bottleneck {
			bottleneck = l.perPage
		}
		if n.obs != nil {
			n.obs(li, wait, service)
		}
	}
	n.transfers++
	return head + des.Time(pages)*bottleneck - at
}

// Restore prices a restore of pages from device d to host h at
// virtual time at and returns the extra delay the fabric adds over
// the flat single-hop model already charged elsewhere: the full
// path-and-contention transfer time minus the flat baseline (one
// default host-switch-device trip at the default per-page service).
// On a Trivial topology with idle links this is exactly zero.
func (n *Net) Restore(h, d, pages int, at des.Time) des.Time {
	if pages <= 0 {
		pages = 1
	}
	total := n.Transfer(h, d, pages, at)
	base := 2*n.topo.defEdgeLat + des.Time(pages)*n.topo.defPerPage
	if total <= base {
		return 0
	}
	extra := total - base
	n.charged += extra
	return extra
}

// Transfers reports how many transfers the net has priced.
func (n *Net) Transfers() int64 { return n.transfers }

// Queued reports how many per-link slot claims had to wait.
func (n *Net) Queued() int64 { return n.queued }

// QueueDelay reports the cumulative virtual time transfers spent
// waiting for a stream slot.
func (n *Net) QueueDelay() des.Time { return n.queueDelay }

// Charged reports the cumulative extra restore delay billed beyond
// the flat baseline.
func (n *Net) Charged() des.Time { return n.charged }

// RegisterTelemetry exposes the net's counters on reg. Safe on a nil
// registry (no-op, matching the rest of the stack).
func (n *Net) RegisterTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.CounterFunc("cxlfork_fabric_transfers_total",
		"Transfers priced by the fabric contention model.",
		func(des.Time) float64 { return float64(n.transfers) })
	reg.CounterFunc("cxlfork_fabric_queued_total",
		"Transfers that waited for a link stream slot.",
		func(des.Time) float64 { return float64(n.queued) })
	reg.CounterFunc("cxlfork_fabric_queue_delay_seconds_total",
		"Cumulative virtual time spent waiting for link slots.",
		func(des.Time) float64 { return float64(n.queueDelay) / float64(des.Second) })
	reg.CounterFunc("cxlfork_fabric_extra_delay_seconds_total",
		"Cumulative extra restore delay charged beyond the flat model.",
		func(des.Time) float64 { return float64(n.charged) / float64(des.Second) })
}

// String summarizes the net's counters for experiment footers.
func (n *Net) String() string {
	return fmt.Sprintf("transfers=%d queued=%d queue-delay=%s extra=%s",
		n.transfers, n.queued, n.queueDelay, n.charged)
}
