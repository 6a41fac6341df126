package fsim

import (
	"testing"

	"cxlfork/internal/cxl"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
)

func TestFSCreateLookup(t *testing.T) {
	fs := NewFS()
	fs.Create("/lib/a.so", 8192)
	f, err := fs.Lookup("/lib/a.so")
	if err != nil || f.Size != 8192 {
		t.Fatalf("lookup: %v %+v", err, f)
	}
	if _, err := fs.Lookup("/nope"); err == nil {
		t.Fatal("phantom file found")
	}
}

func TestPageTokensDeterministicAndDistinct(t *testing.T) {
	fs := NewFS()
	a := fs.Create("/a", 4096*4)
	b := fs.Create("/b", 4096*4)
	if a.PageToken(0) != a.PageToken(0) {
		t.Fatal("token not deterministic")
	}
	if a.PageToken(0) == a.PageToken(1) {
		t.Fatal("pages share token")
	}
	if a.PageToken(0) == b.PageToken(0) {
		t.Fatal("files share token")
	}
	if a.PageToken(0) == 0 {
		t.Fatal("zero token (means zeroed page)")
	}
}

func TestPageCacheSharing(t *testing.T) {
	pool := memsim.NewPool("dram", memsim.Local, 1<<20, 4096)
	pc := NewPageCache(pool)
	fs := NewFS()
	f := fs.Create("/a", 4096*4)

	fr1, hit, err := pc.Get(f, 0)
	if err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	if fr1.Data != f.PageToken(0) {
		t.Fatal("cached frame has wrong content")
	}
	fr2, hit, _ := pc.Get(f, 0)
	if !hit || fr2 != fr1 {
		t.Fatal("second get did not share the frame")
	}
	if pc.Hits != 1 || pc.Misses != 1 || pc.Pages() != 1 {
		t.Fatalf("stats hits=%d misses=%d pages=%d", pc.Hits, pc.Misses, pc.Pages())
	}
}

func newDev() *cxl.Device {
	p := params.Default()
	p.CXLBytes = 1 << 20
	return cxl.NewDevice(p)
}

func TestCXLFSWriteRead(t *testing.T) {
	dev := newDev()
	fs := NewCXLFS(dev)
	blob := []byte("image-bytes")
	if err := fs.Write("ck1.img", blob, 100_000); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("ck1.img")
	if err != nil || string(got) != "image-bytes" {
		t.Fatalf("read: %q %v", got, err)
	}
	if dev.UsedBytes() != 100_000 {
		t.Fatalf("device charge = %d", dev.UsedBytes())
	}
	if dev.WriteBytes != 100_000 || dev.ReadBytes != 100_000 {
		t.Fatalf("fabric traffic w=%d r=%d", dev.WriteBytes, dev.ReadBytes)
	}
}

func TestCXLFSWriteOnce(t *testing.T) {
	fs := NewCXLFS(newDev())
	fs.Write("x", []byte("a"), 10)
	if err := fs.Write("x", []byte("b"), 10); err == nil {
		t.Fatal("overwrite accepted")
	}
}

func TestCXLFSRemoveReleasesCapacity(t *testing.T) {
	dev := newDev()
	fs := NewCXLFS(dev)
	fs.Write("x", []byte("a"), 500_000)
	if !fs.Remove("x") {
		t.Fatal("remove failed")
	}
	if dev.UsedBytes() != 0 {
		t.Fatalf("device still charged %d", dev.UsedBytes())
	}
	if fs.Remove("x") {
		t.Fatal("double remove succeeded")
	}
	// Name reusable after removal.
	if err := fs.Write("x", []byte("b"), 10); err != nil {
		t.Fatal(err)
	}
}

func TestCXLFSCapacity(t *testing.T) {
	fs := NewCXLFS(newDev())
	if err := fs.Write("big", []byte("x"), 2<<20); err == nil {
		t.Fatal("over-capacity write accepted")
	}
}
