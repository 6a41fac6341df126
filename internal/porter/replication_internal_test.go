package porter

import (
	"testing"

	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
	"cxlfork/internal/replica"
	"cxlfork/internal/rfork"
)

// ladderProfiles covers every function the capacity-ladder tests score.
func ladderProfiles() map[ProfileKey]Profile {
	pr := Profile{
		Restore:        2 * des.Millisecond,
		ColdExec:       15 * des.Millisecond,
		WarmExec:       10 * des.Millisecond,
		LocalPages:     256,
		ColdInit:       200 * des.Millisecond,
		ColdInitExec:   12 * des.Millisecond,
		FootprintPages: 2048,
	}
	out := map[ProfileKey]Profile{}
	for _, fn := range []string{"Tiny", "A", "B"} {
		for _, pol := range []rfork.Policy{rfork.MigrateOnWrite, rfork.MigrateOnAccess, rfork.HybridTiering} {
			out[ProfileKey{Function: fn, Mechanism: "CXLfork", Policy: pol}] = pr
		}
	}
	return out
}

// ladderSpec is a fast function named fn, covered by ladderProfiles.
func ladderSpec(fn string) faas.Spec {
	return faas.Spec{
		Name: fn, FootprintBytes: 8 << 20, LibBytes: 3 << 20,
		InitFrac: 0.6, ROFrac: 0.3, RWFrac: 0.1,
		InitComputeNs: 50 * des.Millisecond, WarmComputeNs: 10 * des.Millisecond,
		ROSweeps: 1, RepeatsPerPage: 1, InitTouchFrac: 0.05, ScratchFrac: 0.05,
		FDCount: 4, LibVMAs: 6,
	}
}

// poolPorter builds a porter over a devices-wide pool at factor rf with
// a small total capacity, for white-box capacity-ladder tests.
func poolPorter(t *testing.T, devices, rf int, cxlBytes int64) (*Porter, *cluster.Cluster) {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = cxlBytes
	p.CXLDevices = devices
	p.ReplicationFactor = rf
	c := cluster.MustNew(p, 2)
	po := New(c, Config{Mechanism: core.New(c.Dev), Profiles: ladderProfiles(), Seed: 1})
	if po.rep == nil {
		t.Fatal("no replica manager on a multi-device pool")
	}
	return po, c
}

// publishAs registers control state for fn, as provisioning does
// before it checkpoints, and publishes img in the function's record.
func publishAs(po *Porter, fn string, img rfork.Image) *fnState {
	st := po.addFn(faas.Spec{Name: fn})
	po.publish(st, img)
	return st
}

// placeImage places a synthetic checkpoint of pages distinct frames,
// keyed so tokens never dedup across images.
func placeImage(t *testing.T, po *Porter, key string, salt uint64, pages int) *replica.Image {
	t.Helper()
	toks := make([]uint64, pages)
	for i := range toks {
		toks[i] = salt<<32 | uint64(i)
	}
	img, err := po.rep.Place(key, key+"-id", "CXLfork", toks, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// fill pushes device d's occupancy up by allocating raw arena bytes.
func fill(t *testing.T, c *cluster.Cluster, d int, name string, bytes int64) {
	t.Helper()
	a, err := c.Pool.Device(d).NewArena(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc("pad", bytes); err != nil {
		t.Fatal(err)
	}
}

// replicaDevice returns the non-affinity device holding key's second
// copy (the pool has exactly one, found via the shed predicate).
func replicaDevice(t *testing.T, po *Porter, key string, devices int) int {
	t.Helper()
	for d := 1; d < devices; d++ {
		if po.rep.SheddableOn(key, d) {
			return d
		}
	}
	t.Fatalf("no second replica of %q found", key)
	return -1
}

// TestAdmissionDefersToRepairAtHighWatermark is the repair-first
// admission invariant: while any image is under-replicated and the pool
// sits at the high watermark, new publications are refused — the
// remaining headroom belongs to the repair loop. Once RepairTick
// restores the factor, the same admission goes through.
func TestAdmissionDefersToRepairAtHighWatermark(t *testing.T) {
	// 3 devices x 4 MiB. A 64-page image replicated twice.
	po, c := poolPorter(t, 3, 2, 12<<20)
	img := placeImage(t, po, "tenant0/Tiny", 1, 64)
	if got := img.Refs(); got < 1 {
		t.Fatalf("refs = %d", got)
	}
	st := po.addFn(faas.Spec{Name: "Tiny"})

	// Kill the device holding the second copy; the image is now one
	// copy short of its factor.
	dead := replicaDevice(t, po, "tenant0/Tiny", 3)
	c.Pool.Fail(dead)
	po.rep.OnDeviceLoss(dead)
	if got := po.rep.UnderReplication(); got != 1 {
		t.Fatalf("UnderReplication = %d, want 1", got)
	}

	// Drive the ingest device over the high watermark and ask to admit.
	devBytes := c.Pool.Device(0).CapacityBytes()
	fill(t, c, 0, "filler", devBytes*95/100-c.Pool.Device(0).UsedBytes())
	if admitted := po.admitCheckpoint(st, 64*int64(c.P.PageSize)); admitted {
		t.Fatal("admission granted while under-replicated at the high watermark")
	}
	if got := po.capc.AdmitRefused.Value(); got != 1 {
		t.Fatalf("AdmitRefused = %d, want 1", got)
	}

	// Repair copies the missing replica onto the surviving spare
	// device; the deficit clears and the same publication is admitted
	// (pool aggregates have room even though device 0 stays hot).
	if copies := po.rep.RepairTick(); copies == 0 {
		t.Fatal("RepairTick repaired nothing")
	}
	if got := po.rep.UnderReplication(); got != 0 {
		t.Fatalf("UnderReplication after repair = %d, want 0", got)
	}
	if admitted := po.admitCheckpoint(st, 64*int64(c.P.PageSize)); !admitted {
		t.Fatal("admission still refused after repair converged")
	}
	if got := po.capc.AdmitRefused.Value(); got != 1 {
		t.Fatalf("AdmitRefused = %d, want 1 (no new refusal)", got)
	}
}

// TestShedForPressureKeepsLastHealthyCopy drives repeated shed passes
// under mounting pressure: surplus replicas go first, and once every
// image is down to one healthy copy, further pressure sheds nothing —
// the last copy is eviction's to take, never shedding's.
func TestShedForPressureKeepsLastHealthyCopy(t *testing.T) {
	// 2 devices x 4 MiB; two 300-page images at factor 2 put ~2.4 MiB
	// on each device.
	po, c := poolPorter(t, 2, 2, 8<<20)
	imgA := placeImage(t, po, "tenant0/A", 1, 300)
	imgB := placeImage(t, po, "tenant0/B", 2, 300)
	publishAs(po, "A", imgA)
	publishAs(po, "B", imgB)

	shedOnce := func(round string) int64 {
		dev := c.Pool.Device(0)
		need := int64(float64(dev.CapacityBytes())*0.93) - dev.UsedBytes()
		if need > 0 {
			fill(t, c, 0, "filler-"+round, need)
		}
		return po.shedForPressure()
	}

	if freed := shedOnce("1"); freed == 0 {
		t.Fatal("round 1 shed nothing above the watermark")
	}
	if freed := shedOnce("2"); freed == 0 {
		t.Fatal("round 2 shed nothing above the watermark")
	}
	// Both images are now single-copy: pressure can free nothing more.
	if freed := shedOnce("3"); freed != 0 {
		t.Fatalf("round 3 freed %d bytes from last copies", freed)
	}
	for _, key := range []string{"tenant0/A", "tenant0/B"} {
		healthy, _ := po.rep.Probe(key)
		if healthy != 1 {
			t.Fatalf("%s: %d healthy copies, want exactly 1", key, healthy)
		}
	}
	if got := po.rep.C.Shed.Value(); got != 2 {
		t.Fatalf("Shed = %d, want 2", got)
	}
	// Both records still hold their images — shedding never unpublished.
	for _, fn := range []string{"A", "B"} {
		if _, ok := po.Checkpoint(fn); !ok {
			t.Fatalf("%s's checkpoint vanished", fn)
		}
	}
}

// TestReplicatedRepublish evicts a replicated checkpoint and completes
// CheckpointAfter requests: the capacity manager re-publishes it through
// the placement manager, at full factor and under the original replica
// key. While a clone still pins the evicted predecessor, its replicas
// still hold the key, so the round is refused instead.
func TestReplicatedRepublish(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		po, c := poolPorter(t, 3, 2, 3*64<<20)
		if err := po.Setup([]faas.Spec{ladderSpec("Tiny")}); err != nil {
			t.Fatal(err)
		}
		st := po.byName["Tiny"]
		old, ok := st.img.(*replica.Image)
		if !ok {
			t.Fatalf("Setup published a %T, want a *replica.Image", st.img)
		}
		placed := po.rep.C.Placed.Value()
		if pinned {
			old.Retain() // a live clone
		}
		st.evict()
		trace := make([]azure.Request, c.P.CheckpointAfter)
		for i := range trace {
			trace[i] = azure.Request{At: des.Time(i) * 100 * des.Millisecond, Function: "Tiny"}
		}
		res := po.Run(trace)
		if pinned {
			if res.CkptRefused != 1 || res.Recheckpoints != 0 || st.img != nil {
				t.Fatalf("pinned predecessor: refused %d, re-published %d, image %v; want the round refused",
					res.CkptRefused, res.Recheckpoints, st.img)
			}
			continue
		}
		rimg, ok := st.img.(*replica.Image)
		if !ok || rimg.Key() != "tenant0/Tiny" {
			t.Fatalf("re-published %T %v, want a *replica.Image keyed tenant0/Tiny", st.img, st.img)
		}
		if res.Recheckpoints != 1 {
			t.Fatalf("Recheckpoints = %d, want 1", res.Recheckpoints)
		}
		if got := res.ReplicasPlaced - placed; got != 2 {
			t.Fatalf("re-publication placed %d replicas, want 2", got)
		}
	}
}
