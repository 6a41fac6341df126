package fabric

import (
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/params"
)

func idleNet(t *testing.T, spec string) *Net {
	t.Helper()
	return NewNet(build(t, spec))
}

func TestTransferIdlePath(t *testing.T) {
	p := params.Default()
	edge := p.CXLLatency / 2
	perPage := p.CXLReadPage
	n := idleNet(t, twoSwitch)

	// Switch-local, idle: head crosses two default edges, then the
	// bottleneck (default per-page) drains the payload.
	pages := 10
	want := 2*edge + des.Time(pages)*perPage
	if got := n.Transfer(0, 0, pages, 0); got != want {
		t.Fatalf("idle local transfer %v, want %v", got, want)
	}
	if n.Transfers() != 1 || n.Queued() != 0 {
		t.Fatalf("counters transfers=%d queued=%d", n.Transfers(), n.Queued())
	}

	// Cross-switch: the 8 GB/s trunk's per-page service (4096/8 ≈
	// 512ns) stays under the default edge service, so the bottleneck is
	// still the edge; only the trunk's 800ns latency is added.
	want = 2*edge + 800 + des.Time(pages)*perPage
	if got := n.Transfer(0, 1, pages, des.Time(des.Second)); got != want {
		t.Fatalf("idle cross-switch transfer %v, want %v", got, want)
	}
}

func TestTransferQueuesWhenStreamsBusy(t *testing.T) {
	// The trunk admits streams=2: a third concurrent cross-switch
	// transfer must wait for the earliest slot to free.
	n := idleNet(t, twoSwitch)
	pages := 100
	first := n.Transfer(0, 1, pages, 0)
	if n.Queued() != 0 {
		t.Fatalf("first transfer queued")
	}
	n.Transfer(0, 1, pages, 0)
	// Host edge h0-sw0 has 6 default slots, trunk has 2: the third
	// transfer queues on the trunk.
	third := n.Transfer(0, 1, pages, 0)
	if n.Queued() == 0 {
		t.Fatal("third concurrent transfer did not queue")
	}
	if third <= first {
		t.Fatalf("queued transfer %v not slower than idle %v", third, first)
	}
	if n.QueueDelay() <= 0 {
		t.Fatal("no queue delay recorded")
	}
}

func TestRestoreDifferentialZeroOnIdleDefaults(t *testing.T) {
	// Attr-less single-switch grid: the transfer is exactly the flat
	// baseline, so the billed extra must be zero.
	n := idleNet(t, GridSpec(2, 1, 1))
	if extra := n.Restore(0, 0, 50, 0); extra != 0 {
		t.Fatalf("trivial idle restore charged %v", extra)
	}
	if n.Charged() != 0 {
		t.Fatalf("charged %v", n.Charged())
	}
}

func TestRestoreDifferentialPositiveCrossSwitch(t *testing.T) {
	n := idleNet(t, twoSwitch)
	extra := n.Restore(0, 1, 50, 0)
	if extra != 800 {
		t.Fatalf("cross-switch idle restore extra %v, want trunk latency 800ns", extra)
	}
	if n.Charged() != extra {
		t.Fatalf("charged %v, want %v", n.Charged(), extra)
	}
}

func TestNetDeterminism(t *testing.T) {
	// Same call sequence, fresh nets: byte-identical outputs.
	seq := func() []des.Time {
		n := idleNet(t, GridSpec(4, 2, 6))
		var out []des.Time
		for i := 0; i < 200; i++ {
			h, d := i%4, (i*7)%6
			out = append(out, n.Transfer(h, d, 50+i%90, des.Time(i)*des.Microsecond))
		}
		out = append(out, des.Time(n.Queued()), n.QueueDelay())
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
