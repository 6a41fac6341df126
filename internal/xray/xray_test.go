package xray

import (
	"strings"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/fabric"
	"cxlfork/internal/params"
	"cxlfork/internal/trace"
)

// twoSwitch mirrors the fabric package's canonical fixture: two hosts
// and two devices split across two switches joined by a trunk.
const twoSwitch = `
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

func buildTopo(t *testing.T) *fabric.Topology {
	t.Helper()
	s, err := fabric.Parse(twoSwitch)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	topo, err := s.Build(params.Default())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return topo
}

func TestNilAttributorIsSafeAndDisabled(t *testing.T) {
	var a *Attributor
	if a.Enabled() {
		t.Fatal("nil attributor reports enabled")
	}
	a.Observe(&Request{Class: "warm-start", Latency: 10})
	a.ObserveLink(0, 1, 2)
	if a.UnattributedNS() != 0 {
		t.Fatal("nil attributor accrued unattributed time")
	}
	if a.Report() != nil {
		t.Fatal("nil attributor produced a report")
	}
	var r *Report
	if r.HottestLink() != "" || r.Class("x") != nil {
		t.Fatal("nil report returned data")
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "attribution disabled") {
		t.Fatalf("nil report rendering = %q", b.String())
	}
}

func TestObserveAggregatesAndResidual(t *testing.T) {
	a := New(nil, 0)
	a.Observe(&Request{
		Class: "fork-restore", Name: "Cnn", Span: 3, Arrived: 100, Latency: 1000,
		Components: []Component{{CompPorterQueue, 200}, {CompRestore, 500}, {CompExec, 300}},
	})
	a.Observe(&Request{
		Class: "fork-restore", Name: "Cnn", Span: 9, Arrived: 200, Latency: 900,
		Components: []Component{{CompPorterQueue, 100}, {CompRestore, 400}, {CompExec, 400}},
	})
	// A request whose components undershoot its latency carries residual.
	a.Observe(&Request{
		Class: "scratch-cold", Name: "Json", Arrived: 50, Latency: 700,
		Components: []Component{{CompColdInit, 400}, {CompExec, 200}},
	})
	r := a.Report()
	if r.Requests != 3 {
		t.Fatalf("requests = %d, want 3", r.Requests)
	}
	fr := r.Class("fork-restore")
	if fr == nil || fr.Count != 2 || fr.TotalNS != 1900 || fr.ResidualNS != 0 {
		t.Fatalf("fork-restore blame = %+v", fr)
	}
	// Components sort heaviest first.
	if fr.Components[0].Component != CompRestore || fr.Components[0].TotalNS != 900 {
		t.Fatalf("heaviest component = %+v", fr.Components[0])
	}
	if fr.Components[0].MaxNS != 500 || fr.Components[0].Count != 2 {
		t.Fatalf("restore-service agg = %+v", fr.Components[0])
	}
	sc := r.Class("scratch-cold")
	if sc == nil || sc.ResidualNS != 100 {
		t.Fatalf("scratch-cold residual = %+v", sc)
	}
	if len(sc.Exemplars) != 1 || sc.Exemplars[0].ResidualNS != 100 {
		t.Fatalf("scratch-cold exemplar = %+v", sc.Exemplars)
	}
	// Classes sort by name.
	if r.Classes[0].Class != "fork-restore" || r.Classes[1].Class != "scratch-cold" {
		t.Fatalf("class order = %v, %v", r.Classes[0].Class, r.Classes[1].Class)
	}
}

func TestExemplarOrderAndCap(t *testing.T) {
	a := New(nil, 2)
	// Same latency: earlier arrival wins; then the worst two survive.
	a.Observe(&Request{Class: "c", Name: "mid", Arrived: 30, Latency: 500})
	a.Observe(&Request{Class: "c", Name: "worst", Arrived: 20, Latency: 900})
	a.Observe(&Request{Class: "c", Name: "tie-late", Arrived: 40, Latency: 900})
	a.Observe(&Request{Class: "c", Name: "small", Arrived: 10, Latency: 100})
	ex := a.Report().Class("c").Exemplars
	if len(ex) != 2 {
		t.Fatalf("exemplar count = %d, want 2", len(ex))
	}
	if ex[0].Name != "worst" || ex[1].Name != "tie-late" {
		t.Fatalf("exemplar order = %s, %s", ex[0].Name, ex[1].Name)
	}
}

// Requests that keep entering a full exemplar set allocate nothing:
// each new exemplar takes over the component buffer of the one it
// pushes out, and the aggregates are found by scanning.
func TestObserveAllocatesNothingOnceExemplarsFull(t *testing.T) {
	a := New(nil, 3)
	r := &Request{Class: "warm-start", Name: "f", Device: -1}
	var lat int64
	observe := func() {
		lat++ // each request is the worst yet, so it enters the set
		r.Latency, r.Arrived = lat, lat
		r.Components = append(r.Components[:0],
			Component{Name: CompPorterQueue, NS: 1},
			Component{Name: CompCPUQueue, NS: 0},
			Component{Name: CompExec, NS: lat - 1},
		)
		a.Observe(r)
	}
	for i := 0; i < 4; i++ {
		observe()
	}
	if allocs := testing.AllocsPerRun(1000, observe); allocs != 0 {
		t.Fatalf("Observe into a full exemplar set: %.1f allocations, want 0", allocs)
	}
}

// A report owns its exemplars' components: exemplars that later reuse
// the attributor's buffers leave an earlier report unchanged. An
// exemplar without a nonzero component keeps a nil slice.
func TestReportOwnsExemplarComponents(t *testing.T) {
	a := New(nil, 1)
	a.Observe(&Request{Class: "c", Name: "zero", Latency: 1, Components: []Component{{Name: CompExec}}})
	if ex := a.Report().Class("c").Exemplars[0]; ex.Components != nil {
		t.Fatalf("all-zero exemplar components = %#v, want nil", ex.Components)
	}
	a.Observe(&Request{Class: "c", Name: "first", Latency: 2, Components: []Component{{Name: CompExec, NS: 2}}})
	before := a.Report()
	want := before.Text()
	a.Observe(&Request{Class: "c", Name: "second", Latency: 3, Components: []Component{{Name: CompCPUQueue, NS: 3}}})
	if got := before.Text(); got != want {
		t.Fatalf("an earlier report changed under later requests:\n%s\nwant\n%s", got, want)
	}
	if ex := a.Report().Class("c").Exemplars[0]; ex.Name != "second" || len(ex.Components) != 1 || ex.Components[0].Name != CompCPUQueue {
		t.Fatalf("replacing exemplar = %+v", ex)
	}
}

func TestUnattributedAccounting(t *testing.T) {
	a := New(nil, 0)
	a.Observe(&Request{Class: "scratch-cold", Latency: 100, UnattributedNS: 40})
	a.Observe(&Request{Class: "scratch-cold", Latency: 100})
	if a.UnattributedNS() != 40 {
		t.Fatalf("unattributed = %d, want 40", a.UnattributedNS())
	}
	r := a.Report()
	if r.UnattributedNS != 40 || r.UnattributedCount != 1 {
		t.Fatalf("report unattributed = %d across %d", r.UnattributedNS, r.UnattributedCount)
	}
	if !strings.Contains(r.Text(), "unattributed restore blame") {
		t.Fatal("unattributed blame missing from rendering")
	}
}

func TestHeatmapFromTopology(t *testing.T) {
	topo := buildTopo(t)
	a := New(topo, 0)
	// Drive the trunk hot: links are indexed in spec order, the trunk
	// (sw0-sw1) is link 4.
	a.ObserveLink(4, 700*des.Nanosecond, 300*des.Nanosecond)
	a.ObserveLink(4, 500*des.Nanosecond, 300*des.Nanosecond)
	a.ObserveLink(0, 0, 100*des.Nanosecond)
	a.Observe(&Request{
		Class: "fork-restore", Name: "Cnn", Latency: 1000, Device: 1,
		Components: []Component{{CompFabric, 600}, {CompRestore, 400}},
	})
	r := a.Report()
	if got := r.HottestLink(); got != "sw0-sw1" {
		t.Fatalf("hottest link = %q, want sw0-sw1", got)
	}
	if r.Links[0].Transfers != 2 || r.Links[0].QueuedNS != 1200 || r.Links[0].ServiceNS != 600 {
		t.Fatalf("trunk heat = %+v", r.Links[0])
	}
	if r.Links[0].Switch != "sw0" {
		t.Fatalf("trunk switch = %q, want sw0", r.Links[0].Switch)
	}
	if len(r.Switches) != 1 || r.Switches[0].Transfers != 3 {
		t.Fatalf("switch heat = %+v", r.Switches)
	}
	if len(r.Devices) != 1 || r.Devices[0].Device != "d1" || r.Devices[0].FabricNS != 600 {
		t.Fatalf("device heat = %+v", r.Devices)
	}
	text := r.Text()
	for _, want := range []string{"link heatmap", "sw0-sw1", "switch heat", "device heat"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendering missing %q:\n%s", want, text)
		}
	}
}

func TestReportDeterministicAndFingerprint(t *testing.T) {
	build := func() *Report {
		topo := buildTopo(t)
		a := New(topo, 3)
		for i := 0; i < 10; i++ {
			a.Observe(&Request{
				Class: "warm-start", Name: "Float", Span: i + 1,
				Arrived: int64(i * 10), Latency: int64(1000 - i),
				Components: []Component{{CompPorterQueue, int64(i)}, {CompExec, int64(1000 - 2*i)}},
			})
			a.ObserveLink(i%3, des.Time(i), des.Time(2*i))
		}
		return a.Report()
	}
	a, b := build(), build()
	if a.Text() != b.Text() {
		t.Fatal("identical feeds rendered differently")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical feeds fingerprinted differently")
	}
}

func TestWriteTextSkipsZeroComponentsAndLabelsSpans(t *testing.T) {
	a := New(nil, 0)
	a.Observe(&Request{
		Class: "warm-start", Name: "Json", Span: 0, Latency: 100,
		Components: []Component{{CompPorterQueue, 0}, {CompExec, 100}},
	})
	text := a.Report().Text()
	if strings.Contains(text, CompPorterQueue) {
		t.Fatalf("zero component rendered:\n%s", text)
	}
	if !strings.Contains(text, "span=-") {
		t.Fatalf("untraced span not rendered as '-':\n%s", text)
	}
}

func TestFromSpans(t *testing.T) {
	events := []trace.Event{
		{Name: "restore", Cat: trace.CatOp, Begin: 0, Dur: 100},
		// Repeated phase names merge into one component.
		{Name: "copy", Cat: trace.CatPhase, Parent: 1, Begin: 0, Dur: 30},
		{Name: "copy", Cat: trace.CatPhase, Parent: 1, Begin: 30, Dur: 30},
		{Name: "attach", Cat: trace.CatPhase, Parent: 1, Begin: 60, Dur: 20},
		// Lane detail under a phase is not a direct op child: ignored.
		{Name: "lane", Cat: trace.CatLane, Parent: 2, Begin: 0, Dur: 30},
		// A second root op with no phases: pure residual.
		{Name: "checkpoint", Cat: trace.CatOp, Begin: 200, Dur: 50},
	}
	r := FromSpans(events, 0)
	if r.Requests != 2 {
		t.Fatalf("requests = %d, want 2", r.Requests)
	}
	restore := r.Class("op/restore")
	if restore == nil || restore.ResidualNS != 20 {
		t.Fatalf("op/restore = %+v", restore)
	}
	if len(restore.Components) != 2 || restore.Components[0].Component != "copy" || restore.Components[0].TotalNS != 60 {
		t.Fatalf("op/restore components = %+v", restore.Components)
	}
	ck := r.Class("op/checkpoint")
	if ck == nil || ck.ResidualNS != 50 || len(ck.Components) != 0 {
		t.Fatalf("op/checkpoint = %+v", ck)
	}
	if restore.Exemplars[0].Span != 1 {
		t.Fatalf("exemplar span = %d, want 1", restore.Exemplars[0].Span)
	}
}
