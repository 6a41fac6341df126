package params

import (
	"testing"

	"cxlfork/internal/des"
)

func TestCoWCXLDecomposition(t *testing.T) {
	// §4.2.1: 2.5µs total = handler + 1.3µs copy + 0.5µs shootdown.
	p := Default()
	if got := p.CoWCXLFault(); got != FaultEntry+p.CXLReadPage+TLBShootdown {
		t.Fatalf("CoWCXLFault = %v, want sum of parts", got)
	}
	if p.CoWCXLFault() != 2500*des.Nanosecond {
		t.Fatalf("CoWCXLFault = %v, want 2.5µs", p.CoWCXLFault())
	}
	if p.MoAFault() != FaultEntry+p.CXLReadPage {
		t.Fatal("MoAFault decomposition wrong")
	}
}

func TestPagesBytes(t *testing.T) {
	p := Default()
	if p.Pages(0) != 0 || p.Pages(1) != 1 || p.Pages(4096) != 1 || p.Pages(4097) != 2 {
		t.Fatal("Pages rounding wrong")
	}
	if p.Bytes(3) != 3*4096 {
		t.Fatal("Bytes wrong")
	}
}

func TestPaperConstants(t *testing.T) {
	p := Default()
	cases := []struct {
		name string
		got  des.Time
		want des.Time
	}{
		{"CXL round trip", p.CXLLatency, 391 * des.Nanosecond},
		{"CXL copy", p.CXLReadPage, 1300 * des.Nanosecond},
		{"TLB shootdown", TLBShootdown, 500 * des.Nanosecond},
		{"container create", ContainerCreate, 130 * des.Millisecond},
		{"short keep-alive", KeepAliveShort, 10 * des.Second},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if p.CheckpointAfter != 16 {
		t.Errorf("CheckpointAfter = %d, want 16", p.CheckpointAfter)
	}
	if HighMemFraction != 0.90 {
		t.Errorf("HighMemFraction = %v, want 0.90", HighMemFraction)
	}
	if GhostContainerBytes != 512<<10 {
		t.Errorf("ghost container = %d bytes, want 512KB", GhostContainerBytes)
	}
	// Checkpoint copy ordering: local < NT-to-CXL, ~1.5x apart (§7.1).
	ratio := float64(p.CXLWritePage) / float64(LocalCopyPage)
	if ratio < 1.3 || ratio > 1.7 {
		t.Errorf("CXL/local copy ratio %v, want ≈1.5", ratio)
	}
	if AnonFault >= des.Microsecond {
		t.Errorf("anon fault %v, want < 1µs", AnonFault)
	}
}
