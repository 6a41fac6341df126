package xray

import (
	"slices"
	"sort"
	"strings"

	"cxlfork/internal/des"
	"cxlfork/internal/fabric"
)

// Canonical component names the porter feeds. Span-derived reports use
// phase names instead; the renderer treats both uniformly.
const (
	// CompPorterQueue is time spent queued in the porter before a spawn
	// or warm instance was available (lane/admission queueing).
	CompPorterQueue = "porter-queue"
	// CompUplink is the Mitosis parent-uplink remote copy, including
	// its stream-slot queueing.
	CompUplink = "uplink-copy"
	// CompCPUQueue is time spent waiting for a free core after the
	// spawn was placed.
	CompCPUQueue = "cpu-queue"
	// CompProbe is replica failover probing: dead devices probed ahead
	// of the first healthy replica.
	CompProbe = "failover-probe"
	// CompBackoff is capped-exponential retry backoff charged across
	// replica failovers and node-down retries.
	CompBackoff = "retry-backoff"
	// CompFabric is the fabric path latency and per-link stream
	// contention charged beyond the flat single-hop baseline.
	CompFabric = "fabric-transit"
	// CompRestore is the restore-phase device service: reading the
	// checkpoint's pages and attaching its tables.
	CompRestore = "restore-service"
	// CompColdInit is the scratch cold start's initialization service
	// (interpreter boot, module import, data load).
	CompColdInit = "cold-init"
	// CompContainer is container provisioning: a fresh container's
	// creation or a ghost container's trigger.
	CompContainer = "container"
	// CompExec is the function execution itself.
	CompExec = "exec"
)

// DefaultExemplars is the per-class exemplar count when a zero top-K
// is configured.
const DefaultExemplars = 5

// Component is one named share of a request's latency, in virtual
// nanoseconds.
type Component struct {
	// Name identifies the component (Comp* constants or a phase name).
	Name string `json:"name"`
	// NS is the component's virtual-time share in nanoseconds.
	NS int64 `json:"ns"`
}

// Request is one completed request's latency decomposition, as fed by
// the porter (or synthesized from a trace span). The component sum
// must equal Latency up to the residual, which the attributor computes
// and accounts explicitly — it never silently drops time.
type Request struct {
	// Class is the op class the request aggregates under (warm-start,
	// fork-restore, scratch-cold, or an op span name).
	Class string
	// Name labels the request (function name) in exemplars.
	Name string
	// Span is the request's trace span ID (0 or negative when tracing
	// was off or the span was dropped).
	Span int
	// Arrived is the request's arrival virtual time in nanoseconds —
	// the exemplar tie-breaker.
	Arrived int64
	// Latency is the end-to-end virtual latency in nanoseconds.
	Latency int64
	// Device is the pool device the restore read from, or -1.
	Device int
	// Components is the ordered decomposition; zero-valued entries are
	// permitted and aggregate as zero.
	Components []Component
	// UnattributedNS is restore blame (probe + backoff) accrued toward
	// a restore that then degraded to a scratch cold start — time the
	// restore-latency recorder silently drops, surfaced here instead.
	UnattributedNS int64
}

// Attributor accumulates request decompositions and fabric link heat
// into a deterministic Report. A nil Attributor is the disabled
// engine: every method no-ops and Report returns nil.
type Attributor struct {
	topo *fabric.Topology
	topK int

	seq int64
	// classes holds one aggregate per op class in first-seen order; a
	// feed has a handful of classes, so Observe scans it by name.
	classes []*classAgg
	links   map[int]*linkAgg
	devices map[int]*devAgg

	unattributedNS    int64
	unattributedCount int64
}

type classAgg struct {
	name       string
	count      int64
	totalNS    int64
	residualNS int64
	// comps holds one aggregate per component name, in first-seen
	// order; Report sorts them.
	comps     []compAgg
	exemplars []Exemplar
}

type compAgg struct {
	name    string
	totalNS int64
	maxNS   int64
	count   int64 // requests with a nonzero share
}

type linkAgg struct {
	transfers int64
	queuedNS  int64
	serviceNS int64
}

type devAgg struct {
	restores int64
	fabricNS int64
}

// New returns an enabled attributor. topo supplies link and switch
// labels for the fabric heatmap and may be nil (flat model: no
// heatmap). topK bounds per-class exemplars (DefaultExemplars when
// <= 0).
func New(topo *fabric.Topology, topK int) *Attributor {
	if topK <= 0 {
		topK = DefaultExemplars
	}
	return &Attributor{
		topo:    topo,
		topK:    topK,
		links:   make(map[int]*linkAgg),
		devices: make(map[int]*devAgg),
	}
}

// Enabled reports whether attribution is on — the guard for any
// caller-side component capture beyond the Observe call itself.
func (a *Attributor) Enabled() bool { return a != nil }

// Observe folds one completed request into the aggregates. It retains
// nothing of r, so a caller may reuse the request and its component
// slice for the next one. Safe on a nil attributor (no-op).
func (a *Attributor) Observe(r *Request) {
	if a == nil {
		return
	}
	a.seq++
	c := a.class(r.Class)
	c.count++
	c.totalNS += r.Latency

	var sum int64
	for i, comp := range r.Components {
		sum += comp.NS
		ca := c.comp(i, comp.Name)
		ca.totalNS += comp.NS
		if comp.NS > 0 {
			ca.count++
		}
		if comp.NS > ca.maxNS {
			ca.maxNS = comp.NS
		}
	}
	residual := r.Latency - sum
	c.residualNS += residual

	if r.UnattributedNS > 0 {
		a.unattributedNS += r.UnattributedNS
		a.unattributedCount++
	}

	if r.Device >= 0 {
		d := a.devices[r.Device]
		if d == nil {
			d = &devAgg{}
			a.devices[r.Device] = d
		}
		d.restores++
		for _, comp := range r.Components {
			if comp.Name == CompFabric {
				d.fabricNS += comp.NS
			}
		}
	}

	// Exemplar insertion: keep the topK worst by (latency desc,
	// arrival asc, sequence asc) — a total order, so the kept set is
	// independent of observation batching. This request's sequence
	// number is the largest yet, so it ranks after every kept exemplar
	// with its latency and arrival: it enters before the first kept
	// exemplar it outranks on those two keys, if that is within topK.
	at := sort.Search(len(c.exemplars), func(i int) bool {
		e := c.exemplars[i]
		if e.LatencyNS != r.Latency {
			return e.LatencyNS < r.Latency
		}
		return e.ArrivedNS > r.Arrived
	})
	if at >= a.topK {
		return
	}
	// A full set pushes its last exemplar out; the new one takes over
	// its component buffer.
	var comps []Component
	if n := len(c.exemplars); n < a.topK {
		c.exemplars = append(c.exemplars, Exemplar{})
	} else {
		comps = c.exemplars[n-1].Components[:0]
	}
	copy(c.exemplars[at+1:], c.exemplars[at:])
	for _, comp := range r.Components {
		if comp.NS != 0 {
			comps = append(comps, comp)
		}
	}
	if len(comps) == 0 {
		comps = nil // no nonzero share: the exemplar renders "components": null
	}
	c.exemplars[at] = Exemplar{
		Seq:        a.seq,
		Name:       r.Name,
		Span:       r.Span,
		LatencyNS:  r.Latency,
		ArrivedNS:  r.Arrived,
		Components: comps,
		ResidualNS: residual,
	}
}

// class returns the named class's aggregate, adding it on first use.
func (a *Attributor) class(name string) *classAgg {
	for _, c := range a.classes {
		if c.name == name {
			return c
		}
	}
	c := &classAgg{name: name}
	a.classes = append(a.classes, c)
	return c
}

// comp returns the class's aggregate for the named component, adding
// it on first use. A feed lists its components in a fixed order, so the
// search tries the component's position in the request first. The
// pointer is valid until the next comp call.
func (c *classAgg) comp(at int, name string) *compAgg {
	if at < len(c.comps) && c.comps[at].name == name {
		return &c.comps[at]
	}
	for i := range c.comps {
		if c.comps[i].name == name {
			return &c.comps[i]
		}
	}
	c.comps = append(c.comps, compAgg{name: name})
	return &c.comps[len(c.comps)-1]
}

// ObserveLink folds one per-link stream-slot claim into the heatmap:
// wait is the slot queue delay, service the link's page service time.
// It is the fabric.Net observer callback; safe on a nil attributor.
func (a *Attributor) ObserveLink(link int, wait, service des.Time) {
	if a == nil {
		return
	}
	l := a.links[link]
	if l == nil {
		l = &linkAgg{}
		a.links[link] = l
	}
	l.transfers++
	l.queuedNS += int64(wait)
	l.serviceNS += int64(service)
}

// UnattributedNS reports the cumulative restore blame accrued toward
// degraded requests — the xray_unattributed counter's value. Safe on a
// nil attributor (0).
func (a *Attributor) UnattributedNS() int64 {
	if a == nil {
		return 0
	}
	return a.unattributedNS
}

// Report snapshots the aggregates into a deterministic, render-ready
// report. A nil attributor returns nil.
func (a *Attributor) Report() *Report {
	if a == nil {
		return nil
	}
	r := &Report{
		UnattributedNS:    a.unattributedNS,
		UnattributedCount: a.unattributedCount,
	}

	classes := slices.Clone(a.classes)
	slices.SortFunc(classes, func(x, y *classAgg) int { return strings.Compare(x.name, y.name) })
	for _, c := range classes {
		cb := ClassBlame{
			Class:      c.name,
			Count:      c.count,
			TotalNS:    c.totalNS,
			ResidualNS: c.residualNS,
			Exemplars:  append([]Exemplar(nil), c.exemplars...),
		}
		// The attributor reuses its exemplars' component buffers: the
		// report gets its own.
		for i := range cb.Exemplars {
			cb.Exemplars[i].Components = slices.Clone(cb.Exemplars[i].Components)
		}
		r.Requests += c.count
		for _, agg := range c.comps {
			if agg.totalNS == 0 && agg.count == 0 {
				continue
			}
			cb.Components = append(cb.Components, ComponentBlame{
				Component: agg.name,
				TotalNS:   agg.totalNS,
				MaxNS:     agg.maxNS,
				Count:     agg.count,
			})
		}
		// Blame order: heaviest component first, name breaking ties.
		sort.Slice(cb.Components, func(i, j int) bool {
			ci, cj := cb.Components[i], cb.Components[j]
			if ci.TotalNS != cj.TotalNS {
				return ci.TotalNS > cj.TotalNS
			}
			return ci.Component < cj.Component
		})
		r.Classes = append(r.Classes, cb)
	}

	if a.topo != nil {
		linkIdx := make([]int, 0, len(a.links))
		for li := range a.links {
			linkIdx = append(linkIdx, li)
		}
		sort.Ints(linkIdx)
		switches := make(map[string]*linkAgg)
		for _, li := range linkIdx {
			l := a.links[li]
			sw := a.topo.LinkSwitch(li)
			r.Links = append(r.Links, LinkHeat{
				Link:      a.topo.LinkLabel(li),
				Switch:    sw,
				Transfers: l.transfers,
				QueuedNS:  l.queuedNS,
				ServiceNS: l.serviceNS,
			})
			sa := switches[sw]
			if sa == nil {
				sa = &linkAgg{}
				switches[sw] = sa
			}
			sa.transfers += l.transfers
			sa.queuedNS += l.queuedNS
			sa.serviceNS += l.serviceNS
		}
		// Heatmap order: most-contended link first.
		sort.SliceStable(r.Links, func(i, j int) bool {
			if r.Links[i].QueuedNS != r.Links[j].QueuedNS {
				return r.Links[i].QueuedNS > r.Links[j].QueuedNS
			}
			return r.Links[i].Link < r.Links[j].Link
		})
		swNames := make([]string, 0, len(switches))
		for sw := range switches {
			swNames = append(swNames, sw)
		}
		sort.Strings(swNames)
		for _, sw := range swNames {
			sa := switches[sw]
			r.Switches = append(r.Switches, SwitchHeat{
				Switch:    sw,
				Transfers: sa.transfers,
				QueuedNS:  sa.queuedNS,
				ServiceNS: sa.serviceNS,
			})
		}
		devIdx := make([]int, 0, len(a.devices))
		for d := range a.devices {
			devIdx = append(devIdx, d)
		}
		sort.Ints(devIdx)
		for _, d := range devIdx {
			da := a.devices[d]
			name := ""
			if d < a.topo.Devices() {
				name = a.topo.DeviceName(d)
			}
			r.Devices = append(r.Devices, DeviceHeat{
				Device:   name,
				Restores: da.restores,
				FabricNS: da.fabricNS,
			})
		}
	}
	return r
}
