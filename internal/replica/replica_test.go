package replica

import (
	"testing"

	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/params"
)

// harness builds a pool of n devices and a manager with replication
// factor k over a small device geometry.
func harness(t *testing.T, n, k int) (*cxl.DevicePool, *des.Engine, *Manager) {
	t.Helper()
	p := params.Default()
	p.CXLBytes = 3 << 20
	p.ReplicationFactor = k
	p.RepairBandwidthPages = 8
	eng := des.NewEngine()
	pool := cxl.NewDevicePool(p, n)
	return pool, eng, New(pool, eng, p)
}

func tokens(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

func TestPlacementIsDeterministicAndSpreads(t *testing.T) {
	_, _, m1 := harness(t, 3, 2)
	_, _, m2 := harness(t, 3, 2)
	for _, key := range []string{"u/a", "u/b", "u/c", "u/d"} {
		if got, want := m1.ringOrder(key), m2.ringOrder(key); len(got) != len(want) {
			t.Fatalf("ring order lengths differ for %q", key)
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("ring order for %q diverges: %v vs %v", key, got, want)
				}
			}
		}
	}

	img, err := m1.Place("u/a", "cid-a", "cxlfork", tokens(100, 4), 512)
	if err != nil {
		t.Fatal(err)
	}
	reps := m1.Replicas("u/a")
	if len(reps) != 2 {
		t.Fatalf("placed %d replicas, want 2", len(reps))
	}
	if reps[0].Dev == reps[1].Dev {
		t.Fatal("both replicas on the same device")
	}
	for _, r := range reps {
		if !r.Healthy {
			t.Fatalf("fresh replica on dev %d unhealthy", r.Dev)
		}
	}
	if img.Pages() != 4 {
		t.Fatalf("Pages = %d", img.Pages())
	}
	img.Release()
	if m1.Len() != 0 {
		t.Fatal("release should drop the image")
	}
}

func TestAffinityDeviceComesFirst(t *testing.T) {
	_, _, m := harness(t, 3, 2)
	img, err := m.Place("u/x", "cid-x", "cxlfork", tokens(1, 2), 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Release()
	reps := m.Replicas("u/x")
	if reps[0].Dev != 1 {
		t.Fatalf("preferred replica on dev %d, want affinity dev 1", reps[0].Dev)
	}
}

func TestProbeAndFailover(t *testing.T) {
	pool, _, m := harness(t, 3, 2)
	img, err := m.Place("u/f", "cid-f", "cxlfork", tokens(10, 3), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Release()

	if h, d := m.Probe("u/f"); h != 2 || d != 0 {
		t.Fatalf("fresh probe = (%d,%d), want (2,0)", h, d)
	}

	first := m.Replicas("u/f")[0].Dev
	pool.Fail(first)
	m.OnDeviceLoss(first)

	h, d := m.Probe("u/f")
	if h != 1 {
		t.Fatalf("healthy after loss = %d, want 1", h)
	}
	if d != 1 {
		t.Fatalf("deadAhead = %d, want 1 (dead device stays on the preference list until repair)", d)
	}
	if h, d := m.Probe("missing"); h != 0 || d != 0 {
		t.Fatalf("unknown key probe = (%d,%d)", h, d)
	}
}

func TestShedNeverDropsLastHealthyCopy(t *testing.T) {
	pool, _, m := harness(t, 3, 3)
	img, err := m.Place("u/s", "cid-s", "cxlfork", tokens(20, 2), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Release()

	// Each step sheds the least-preferred copy.
	shedLast := func() bool {
		r := m.Replicas("u/s")
		return m.ShedOn("u/s", r[len(r)-1].Dev)
	}
	if !shedLast() {
		t.Fatal("first shed (3 copies) should succeed")
	}
	if !shedLast() {
		t.Fatal("second shed (2 copies) should succeed")
	}
	if shedLast() {
		t.Fatal("shed must refuse the last healthy copy")
	}
	if h, _ := m.Probe("u/s"); h != 1 {
		t.Fatalf("healthy = %d, want 1", h)
	}

	last := m.Replicas("u/s")[len(m.Replicas("u/s"))-1].Dev
	if m.SheddableOn("u/s", last) {
		t.Fatal("last copy must not be sheddable")
	}
	_ = pool
	if got := m.C.Shed.Value(); got != 2 {
		t.Fatalf("Shed counter = %d, want 2", got)
	}
}

func TestRepairConvergesAfterLoss(t *testing.T) {
	pool, eng, m := harness(t, 3, 2)
	img, err := m.Place("u/r", "cid-r", "cxlfork", tokens(30, 20), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Release()

	lostDev := m.Replicas("u/r")[0].Dev
	eng.Advance(100)
	pool.Fail(lostDev)
	m.OnDeviceLoss(lostDev)

	if m.UnderReplication() != 1 {
		t.Fatalf("deficit = %d, want 1", m.UnderReplication())
	}
	if !m.RepairPending() {
		t.Fatal("repair should be pending after loss")
	}

	// Bandwidth is 8 pages/tick and the image has 20 pages: repair must
	// span ticks, resuming the partial replica.
	ticks := 0
	for m.UnderReplication() > 0 {
		eng.Advance(10)
		m.RepairTick()
		if ticks++; ticks > 10 {
			t.Fatal("repair did not converge")
		}
	}
	if ticks < 3 {
		t.Fatalf("repair finished in %d ticks, want >= 3 (bandwidth-limited)", ticks)
	}
	d, ok := m.ConvergenceTime()
	if !ok || d <= 0 {
		t.Fatalf("convergence = (%v,%v)", d, ok)
	}
	if m.RepairPending() {
		t.Fatal("repair still pending after convergence")
	}
	// The dead device is pruned from the preference list once repaired.
	if h, dead := m.Probe("u/r"); h != 2 || dead != 0 {
		t.Fatalf("post-repair probe = (%d,%d), want (2,0)", h, dead)
	}
	for _, r := range m.Replicas("u/r") {
		if r.Dev == lostDev {
			t.Fatal("lost device still on the preference list after repair")
		}
	}
	if m.C.RepairCopies.Value() != 1 {
		t.Fatalf("RepairCopies = %d, want 1", m.C.RepairCopies.Value())
	}
	if m.C.RepairedPages.Value() < 20 {
		t.Fatalf("RepairedPages = %d, want >= 20", m.C.RepairedPages.Value())
	}
}

func TestLosingEveryReplicaLosesTheImage(t *testing.T) {
	pool, _, m := harness(t, 2, 1)
	img, err := m.Place("u/l", "cid-l", "cxlfork", tokens(40, 2), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Release()

	dev := m.Replicas("u/l")[0].Dev
	pool.Fail(dev)
	m.OnDeviceLoss(dev)

	if h, _ := m.Probe("u/l"); h != 0 {
		t.Fatalf("healthy = %d, want 0", h)
	}
	if m.C.LostImages.Value() != 1 {
		t.Fatalf("LostImages = %d, want 1", m.C.LostImages.Value())
	}
	// A lost image is not under-replicated: repair cannot resurrect it.
	if m.UnderReplication() != 0 {
		t.Fatalf("deficit = %d, want 0 for a lost image", m.UnderReplication())
	}
	if m.RepairTick() != 0 {
		t.Fatal("repair copied pages for an unrecoverable image")
	}
}

func TestEffectiveFactorTracksSurvivors(t *testing.T) {
	pool, _, m := harness(t, 3, 3)
	if m.EffectiveFactor() != 3 {
		t.Fatalf("effective = %d", m.EffectiveFactor())
	}
	pool.Fail(0)
	if m.EffectiveFactor() != 2 {
		t.Fatalf("effective after one loss = %d", m.EffectiveFactor())
	}
	// Factor is clamped to the pool size at construction.
	p := params.Default()
	p.CXLBytes = 1 << 20
	p.ReplicationFactor = 9
	pool2 := cxl.NewDevicePool(p, 2)
	if f := New(pool2, des.NewEngine(), p).Factor(); f != 2 {
		t.Fatalf("clamped factor = %d, want 2", f)
	}
}

func TestDedupAffinityMakesFirstReplicaCheap(t *testing.T) {
	pool, _, m := harness(t, 2, 2)
	// Pre-populate device 0 with the image's frames, as ingest does.
	dev := pool.Device(0)
	pre, err := dev.NewArena("ingest")
	if err != nil {
		t.Fatal(err)
	}
	toks := tokens(50, 6)
	for _, tok := range toks {
		f, _, err := dev.AllocToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		pre.TrackFrame(f)
	}
	if err := pre.Seal(); err != nil {
		t.Fatal(err)
	}

	before := dev.Pool().UsedPages()
	img, err := m.Place("u/d", "cid-d", "cxlfork", toks, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Release()
	if after := dev.Pool().UsedPages(); after != before {
		t.Fatalf("affine replica allocated %d new frames, want 0 (dedup)", after-before)
	}
	if used := pool.Device(1).Pool().UsedPages(); used != len(toks) {
		t.Fatalf("second replica used %d frames, want %d", used, len(toks))
	}
}
