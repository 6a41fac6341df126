package xray

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"cxlfork/internal/des"
)

// Report is a rendered attribution snapshot: per-class blame tables,
// the fabric heatmap, and exemplars. Every slice is sorted under a
// total order at construction, so marshaling and WriteText are
// byte-deterministic for a given run.
type Report struct {
	// Requests is the total observed request count across classes.
	Requests int64 `json:"requests"`
	// Classes holds one blame table per op class, sorted by class name.
	Classes []ClassBlame `json:"classes"`
	// Links is the per-link heatmap, most-contended link first. Empty
	// without a fabric topology.
	Links []LinkHeat `json:"links,omitempty"`
	// Switches aggregates link heat per switch, sorted by switch name.
	Switches []SwitchHeat `json:"switches,omitempty"`
	// Devices is per-device restore traffic, in pool index order.
	Devices []DeviceHeat `json:"devices,omitempty"`
	// UnattributedNS is restore blame (probes + backoff) accrued toward
	// requests that degraded to scratch cold starts — time the
	// restore-latency recorder drops, accounted here instead of lost.
	UnattributedNS int64 `json:"unattributed_ns"`
	// UnattributedCount is how many degraded requests carried such
	// blame.
	UnattributedCount int64 `json:"unattributed_count"`
}

// ClassBlame is one op class's latency decomposition.
type ClassBlame struct {
	// Class is the op class name (warm-start, fork-restore,
	// scratch-cold, or a span-derived op name).
	Class string `json:"class"`
	// Count is the number of requests observed in the class.
	Count int64 `json:"count"`
	// TotalNS is the summed end-to-end latency of the class.
	TotalNS int64 `json:"total_ns"`
	// ResidualNS is the summed per-request residual: latency minus the
	// component sum. Porter-fed decompositions are exact (residual 0);
	// span-derived ones carry the op time outside any phase here.
	ResidualNS int64 `json:"residual_ns"`
	// Components is the blame table, heaviest component first.
	Components []ComponentBlame `json:"components"`
	// Exemplars are the top-K worst requests of the class by latency.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// ComponentBlame is one component's aggregate within a class.
type ComponentBlame struct {
	// Component names the blame component.
	Component string `json:"component"`
	// TotalNS is the component's summed share across the class.
	TotalNS int64 `json:"total_ns"`
	// MaxNS is the largest single-request share observed.
	MaxNS int64 `json:"max_ns"`
	// Count is how many requests carried a nonzero share.
	Count int64 `json:"count"`
}

// Exemplar is one worst-case request: its latency, trace span, and
// full decomposition, linking the class's tail metric to the trace
// that caused it.
type Exemplar struct {
	// Seq is the attributor's observation sequence number.
	Seq int64 `json:"seq"`
	// Name labels the request (function name or op name).
	Name string `json:"name,omitempty"`
	// Span is the request's trace span ID (0 when tracing was off,
	// negative when the span was dropped).
	Span int `json:"span,omitempty"`
	// LatencyNS is the request's end-to-end virtual latency.
	LatencyNS int64 `json:"latency_ns"`
	// ArrivedNS is the request's arrival virtual time.
	ArrivedNS int64 `json:"arrived_ns"`
	// Components is the request's nonzero decomposition, in feed order.
	Components []Component `json:"components"`
	// ResidualNS is the request's latency minus its component sum.
	ResidualNS int64 `json:"residual_ns"`
}

// LinkHeat is one fabric link's contention aggregate.
type LinkHeat struct {
	// Link is the human label: both endpoint names, sorted, joined "-".
	Link string `json:"link"`
	// Switch is the link's owning switch (lexicographically first
	// switch endpoint).
	Switch string `json:"switch,omitempty"`
	// Transfers counts stream-slot claims on the link.
	Transfers int64 `json:"transfers"`
	// QueuedNS is cumulative slot queue delay on the link.
	QueuedNS int64 `json:"queued_ns"`
	// ServiceNS is cumulative page service time on the link.
	ServiceNS int64 `json:"service_ns"`
}

// SwitchHeat aggregates link heat per switch.
type SwitchHeat struct {
	// Switch is the switch's spec id.
	Switch string `json:"switch"`
	// Transfers counts stream-slot claims across the switch's links.
	Transfers int64 `json:"transfers"`
	// QueuedNS is cumulative slot queue delay across the switch's links.
	QueuedNS int64 `json:"queued_ns"`
	// ServiceNS is cumulative page service time across the switch's links.
	ServiceNS int64 `json:"service_ns"`
}

// DeviceHeat is one pool device's restore traffic.
type DeviceHeat struct {
	// Device is the device's spec id.
	Device string `json:"device"`
	// Restores counts restores attributed to the device.
	Restores int64 `json:"restores"`
	// FabricNS is cumulative fabric-transit blame on those restores.
	FabricNS int64 `json:"fabric_ns"`
}

// HottestLink returns the label of the most-contended link (largest
// cumulative queue delay), or "" when the report carries no heatmap.
func (r *Report) HottestLink() string {
	if r == nil || len(r.Links) == 0 {
		return ""
	}
	return r.Links[0].Link
}

// Class returns the named class's blame table, or nil.
func (r *Report) Class(name string) *ClassBlame {
	if r == nil {
		return nil
	}
	for i := range r.Classes {
		if r.Classes[i].Class == name {
			return &r.Classes[i]
		}
	}
	return nil
}

func ns(v int64) string { return des.Time(v).String() }

// WriteText renders the report as the fixed-format blame table and
// heatmap `cxlstat -xray` and the serving layer share. The rendering
// is byte-deterministic for a given report.
func (r *Report) WriteText(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "xray: attribution disabled")
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "xray: critical-path latency attribution\n")
	fmt.Fprintf(&b, "requests: %d", r.Requests)
	if r.UnattributedCount > 0 {
		fmt.Fprintf(&b, ", unattributed restore blame: %s across %d degraded request(s)",
			ns(r.UnattributedNS), r.UnattributedCount)
	}
	b.WriteByte('\n')

	for _, c := range r.Classes {
		fmt.Fprintf(&b, "\nclass %-14s count=%d total=%s residual=%s\n",
			c.Class, c.Count, ns(c.TotalNS), ns(c.ResidualNS))
		fmt.Fprintf(&b, "  %-16s %10s %7s %10s %10s\n", "component", "total", "share", "mean", "max")
		for _, comp := range c.Components {
			if comp.TotalNS == 0 {
				continue
			}
			share := 0.0
			if c.TotalNS > 0 {
				share = 100 * float64(comp.TotalNS) / float64(c.TotalNS)
			}
			mean := int64(0)
			if comp.Count > 0 {
				mean = comp.TotalNS / comp.Count
			}
			fmt.Fprintf(&b, "  %-16s %10s %6.1f%% %10s %10s\n",
				comp.Component, ns(comp.TotalNS), share, ns(mean), ns(comp.MaxNS))
		}
		if len(c.Exemplars) > 0 {
			fmt.Fprintf(&b, "  exemplars (top %d by latency):\n", len(c.Exemplars))
			for _, ex := range c.Exemplars {
				fmt.Fprintf(&b, "    #%d %s lat=%s span=%s", ex.Seq, ex.Name, ns(ex.LatencyNS), spanLabel(ex.Span))
				for _, comp := range ex.Components {
					fmt.Fprintf(&b, " %s=%s", comp.Name, ns(comp.NS))
				}
				if ex.ResidualNS != 0 {
					fmt.Fprintf(&b, " residual=%s", ns(ex.ResidualNS))
				}
				b.WriteByte('\n')
			}
		}
	}

	if len(r.Links) > 0 {
		fmt.Fprintf(&b, "\nlink heatmap (by queue delay):\n")
		fmt.Fprintf(&b, "  %-14s %-8s %9s %10s %10s\n", "link", "switch", "transfers", "queued", "service")
		for _, l := range r.Links {
			fmt.Fprintf(&b, "  %-14s %-8s %9d %10s %10s\n",
				l.Link, l.Switch, l.Transfers, ns(l.QueuedNS), ns(l.ServiceNS))
		}
	}
	if len(r.Switches) > 0 {
		fmt.Fprintf(&b, "switch heat:\n")
		for _, s := range r.Switches {
			fmt.Fprintf(&b, "  %-8s transfers=%d queued=%s service=%s\n",
				s.Switch, s.Transfers, ns(s.QueuedNS), ns(s.ServiceNS))
		}
	}
	if len(r.Devices) > 0 {
		fmt.Fprintf(&b, "device heat:\n")
		for _, d := range r.Devices {
			fmt.Fprintf(&b, "  %-8s restores=%d fabric=%s\n", d.Device, d.Restores, ns(d.FabricNS))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func spanLabel(span int) string {
	if span <= 0 {
		return "-"
	}
	return fmt.Sprintf("%d", span)
}

// Text renders WriteText into a string — the form the determinism
// tests and the serving layer's text mode use.
func (r *Report) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}

// Fingerprint hashes the report's text rendering with FNV-1a (the same
// construction porter.Results uses), for golden determinism pins.
func (r *Report) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.Text()))
	return h.Sum64()
}
