package cxlfork

import (
	"errors"
	"testing"
	"time"
)

// poolConfig splits the device into a three-way pool. The facade
// System drives mechanisms directly (no autoscaler), so checkpoints
// land on the ingest device; the pool surface under test here is the
// device accessors and clock-driven device loss.
func poolConfig() Config {
	cfg := smallConfig()
	cfg.Replication = ReplicationConfig{
		Devices: 3,
		Factor:  2,
	}
	return cfg
}

func TestReplicationConfigSplitsThePool(t *testing.T) {
	sys := newSystem(t, poolConfig())
	if sys.Devices() != 3 {
		t.Fatalf("Devices() = %d, want 3", sys.Devices())
	}
	// Default config keeps the single device.
	if n := newSystem(t, smallConfig()).Devices(); n != 1 {
		t.Fatalf("default Devices() = %d, want 1", n)
	}
}

func TestFailDeviceIsTerminalAndRangeChecked(t *testing.T) {
	sys := newSystem(t, poolConfig())
	for _, dev := range []int{-1, 3, 7} {
		if err := sys.FailDevice(dev); err == nil {
			t.Fatalf("FailDevice(%d) succeeded on a 3-device pool", dev)
		}
	}
	if sys.DeviceFailed(1) {
		t.Fatal("device 1 failed before FailDevice")
	}
	if err := sys.FailDevice(1); err != nil {
		t.Fatal(err)
	}
	if !sys.DeviceFailed(1) || sys.DeviceFailed(0) || sys.DeviceFailed(2) {
		t.Fatalf("failed states = %v %v %v, want false true false",
			sys.DeviceFailed(0), sys.DeviceFailed(1), sys.DeviceFailed(2))
	}

	// Checkpoints ingest on device 0, so losing device 1 must not
	// break the checkpoint/restore path.
	fn := deployWarm(t, sys, "Float")
	ck, err := sys.Checkpoint(fn, CXLfork, "ck-after-loss")
	if err != nil {
		t.Fatal(err)
	}
	clone, err := sys.Restore(1, ck, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Invoke(); err != nil {
		t.Fatal(err)
	}

	// Killing the ingest device makes new checkpoints fail with the
	// typed sentinel.
	if err := sys.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Checkpoint(fn, CXLfork, "ck-dead-ingest"); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("checkpoint on dead ingest device: %v, want ErrDeviceFailed", err)
	}
}

func TestDeviceLossFaultFiresOnTheClock(t *testing.T) {
	sys := newSystem(t, poolConfig())
	sys.InjectFault(FaultRule{Kind: DeviceLoss, Device: 2, At: 5 * 1000 * 1000}) // 5ms
	if sys.DeviceFailed(2) {
		t.Fatal("device 2 failed before its At offset")
	}
	sys.Sleep(2 * time.Millisecond)
	if sys.DeviceFailed(2) {
		t.Fatal("device 2 failed 3ms early")
	}
	sys.Sleep(10 * time.Millisecond)
	if !sys.DeviceFailed(2) {
		t.Fatal("device 2 still healthy after its loss offset elapsed")
	}
	if got := sys.FaultStats().Injected; got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
	// The loss is terminal and idempotent: a second rule for the same
	// device changes nothing.
	sys.InjectFault(FaultRule{Kind: DeviceLoss, Device: 2, At: 0})
	sys.Sleep(time.Millisecond)
	if got := sys.FaultStats().Injected; got != 1 {
		t.Fatalf("duplicate loss re-counted: Injected = %d, want 1", got)
	}
}

func TestPoolMemoryAccountingSkipsDeadDevices(t *testing.T) {
	sys := newSystem(t, poolConfig())
	fn := deployWarm(t, sys, "Float")
	ck, err := sys.Checkpoint(fn, CXLfork, "ck")
	if err != nil {
		t.Fatal(err)
	}
	used := sys.CXLMemoryUsed()
	if used < ck.CXLBytes() {
		t.Fatalf("pool used %d < checkpoint %d", used, ck.CXLBytes())
	}
	// Device 0 holds the checkpoint; failing an empty device must not
	// change the healthy-occupancy aggregate.
	if err := sys.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	if got := sys.CXLMemoryUsed(); got != used {
		t.Fatalf("pool used changed %d -> %d after losing an empty device", used, got)
	}
}
