package porter_test

import (
	"testing"

	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
)

// TestCXLPressureReclaim fills the CXL device past the high watermark
// and checks that incoming requests trigger checkpoint reclaim, after
// which the function cold-starts from scratch.
func TestCXLPressureReclaim(t *testing.T) {
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	// Tight device: Tiny's checkpoint (~8 MB + scratch + metadata) plus
	// filler pushes past 90%.
	p.CXLBytes = 24 << 20
	c := cluster.MustNew(p, 2)
	cfg := porter.Config{
		Mechanism: core.New(c.Dev),
		Profiles:  profiles("CXLfork"),
		Seed:      1,
	}
	po := porter.New(c, cfg)
	if err := po.Setup([]faas.Spec{tinySpec()}); err != nil {
		t.Fatal(err)
	}

	// Fill the device to the watermark with unrelated data.
	pool := c.Dev.Pool()
	for c.Dev.Utilization() < 0.92 {
		pool.MustAlloc()
	}

	res := po.Run(steadyTrace(10, 100*des.Millisecond))
	if res.CkptReclaims == 0 {
		t.Fatal("no checkpoints reclaimed under CXL pressure")
	}
	if _, ok := po.Checkpoint("Tiny"); ok {
		t.Fatal("checkpoint survived reclaim")
	}
	// Requests after the reclaim fall back to scratch cold starts but
	// still complete.
	if res.ScratchCold == 0 {
		t.Fatal("no scratch cold starts after reclaim")
	}
	if res.Completed != 10 {
		t.Fatalf("completed %d of 10", res.Completed)
	}
}

// TestNoReclaimBelowWatermark ensures checkpoints stay put on a roomy
// device.
func TestNoReclaimBelowWatermark(t *testing.T) {
	po, _ := newPorter(t, 1<<30, cxlMech, "CXLfork")
	res := po.Run(steadyTrace(10, 100*des.Millisecond))
	if res.CkptReclaims != 0 {
		t.Fatal("reclaimed without pressure")
	}
	if _, ok := po.Checkpoint("Tiny"); !ok {
		t.Fatal("checkpoint vanished")
	}
}
