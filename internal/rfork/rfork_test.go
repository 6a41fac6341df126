package rfork

import (
	"reflect"
	"testing"
	"testing/quick"

	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/fsim"
	"cxlfork/internal/kernel"
	"cxlfork/internal/params"
	"cxlfork/internal/pt"
	"cxlfork/internal/vma"
)

func TestGlobalStateRoundTrip(t *testing.T) {
	gs := GlobalState{
		FDs: []FDRecord{
			{Num: 3, Kind: kernel.FDFile, Path: "/lib/a.so", Perm: 0o444, Pos: 128},
			{Num: 7, Kind: kernel.FDSocket, Path: "sock:invoker", Perm: 0o600},
		},
		Mounts: []string{"/", "/proc"},
		PIDNS:  "pidns-42",
		Regs:   kernel.Registers{IP: 0xdead, SP: 0xbeef},
	}
	gs.Regs.GPR[3] = 77

	out, err := DecodeGlobalState(gs.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.FDs) != 2 || out.FDs[0] != gs.FDs[0] || out.FDs[1] != gs.FDs[1] {
		t.Fatalf("fds = %+v", out.FDs)
	}
	if len(out.Mounts) != 2 || out.Mounts[1] != "/proc" {
		t.Fatalf("mounts = %v", out.Mounts)
	}
	if out.PIDNS != "pidns-42" || out.Regs != gs.Regs {
		t.Fatalf("pidns/regs mismatch: %+v", out)
	}
}

// TestRestoreGlobalStateKeepsSandbox: restore rebuilds the descriptors,
// mounts and PID namespace from the checkpoint, but the network
// namespace and cgroup stay those of the task it restores into, the
// sandbox the function is deployed in (§4.2 reconfigurable state).
func TestRestoreGlobalStateKeepsSandbox(t *testing.T) {
	p := params.Default()
	p.NodeDRAMBytes = 16 << 20
	p.CXLBytes = 16 << 20
	fs := fsim.NewFS()
	fs.Create("/etc/conf", 4096)
	o := kernel.NewOS("n0", p, des.NewEngine(), cxl.NewDevice(p), fs, p.NodeDRAMBytes)
	child := o.NewTask("fn")
	child.NS.NetNS, child.NS.Cgroup = "netns-sandbox", "/docker/sandbox"
	gs := GlobalState{
		FDs:    []FDRecord{{Num: 3, Kind: kernel.FDFile, Path: "/etc/conf", Perm: 0o444}},
		Mounts: []string{"/", "/data"},
		PIDNS:  "pidns-parent",
	}
	before := o.Eng.Now()
	if err := RestoreGlobalState(child, gs); err != nil {
		t.Fatal(err)
	}
	if ns := child.NS; ns.NetNS != "netns-sandbox" || ns.Cgroup != "/docker/sandbox" {
		t.Fatalf("restore replaced the sandbox: netns %q, cgroup %q", ns.NetNS, ns.Cgroup)
	}
	if !reflect.DeepEqual(child.NS.Mounts, gs.Mounts) || child.NS.PIDNS != gs.PIDNS {
		t.Fatalf("mounts %v, pidns %q; want %v, %q", child.NS.Mounts, child.NS.PIDNS, gs.Mounts, gs.PIDNS)
	}
	if fds := child.FDs.All(); len(fds) != 1 || fds[0].Path != "/etc/conf" {
		t.Fatalf("descriptors = %+v", fds)
	}
	if got, want := o.Eng.Now()-before, params.FDReopen+params.NamespaceRestore; got != want {
		t.Fatalf("restore charged %v, want %v", got, want)
	}
}

func TestGlobalStateEmptyRoundTrip(t *testing.T) {
	gs := GlobalState{PIDNS: "host"}
	out, err := DecodeGlobalState(gs.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.FDs) != 0 || out.PIDNS != "host" {
		t.Fatalf("out = %+v", out)
	}
}

func TestGlobalStateCorrupt(t *testing.T) {
	gs := GlobalState{FDs: []FDRecord{{Num: 3, Path: "/x"}}}
	b := gs.Encode()
	if _, err := DecodeGlobalState(b[:len(b)-1]); err == nil {
		t.Fatal("truncated blob decoded")
	}
}

func TestVMARecordRoundTrip(t *testing.T) {
	cases := []vma.VMA{
		{ID: 1, Start: 0x1000, End: 0x5000, Prot: vma.Read | vma.Write, Kind: vma.Anon, Name: "[heap]"},
		{ID: 900, Start: 0x7f0000000000, End: 0x7f0000040000, Prot: vma.Read | vma.Exec,
			Kind: vma.FilePrivate, Path: "/lib/libc.so", FileOff: 0x2000, Name: "libc"},
		{ID: 2, Start: 0x2000, End: 0x3000}, // zero prot, anonymous, unnamed
	}
	for _, want := range cases {
		got, err := DecodeVMA(EncodeVMA(want))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

// TestVMARecordProperty round-trips randomly generated VMAs.
func TestVMARecordProperty(t *testing.T) {
	f := func(id int32, start, length uint32, prot uint8, file bool, off int32, name string) bool {
		v := vma.VMA{
			ID:    int(id),
			Start: pt.VirtAddr(start) << 12,
			End:   pt.VirtAddr(start)<<12 + pt.VirtAddr(length%1024+1)<<12,
			Prot:  vma.Prot(prot & 7),
			Name:  name,
		}
		if file {
			v.Kind = vma.FilePrivate
			v.Path = "/f/" + name
			v.FileOff = int64(off)
		}
		got, err := DecodeVMA(EncodeVMA(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyNames(t *testing.T) {
	if MigrateOnWrite.String() != "MoW" || MigrateOnAccess.String() != "MoA" || HybridTiering.String() != "HT" {
		t.Fatal("policy names wrong")
	}
}
