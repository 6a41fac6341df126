package kernel

import (
	"errors"
	"testing"

	"cxlfork/internal/pt"
	"cxlfork/internal/vma"
)

func TestSharedMappingCrossNode(t *testing.T) {
	o := testNode(t)
	// Producer publishes two pages.
	prod := o.NewTask("producer")
	_, pfns, err := prod.MM.MmapShared(0x5_0000_0000, 2, "[shm]")
	if err != nil {
		t.Fatal(err)
	}
	if err := prod.MM.Publish(0x5_0000_0000, 42); err != nil {
		t.Fatal(err)
	}
	if err := prod.MM.Publish(0x5_0000_1000, 43); err != nil {
		t.Fatal(err)
	}

	// Consumer maps the same frames (on this single-node test the
	// mapping path is identical to a remote node's).
	cons := o.NewTask("consumer")
	if _, err := cons.MM.MapSharedFrames(0x6_0000_0000, pfns, "[shm-in]"); err != nil {
		t.Fatal(err)
	}
	if err := cons.MM.Access(0x6_0000_0000, false); err != nil {
		t.Fatal(err)
	}
	e, _ := cons.MM.PT.Lookup(0x6_0000_0000)
	if !e.Flags.Has(pt.OnCXL) {
		t.Fatal("consumer mapping not on CXL")
	}
	if got := o.Dev.Pool().Frame(int(e.PFN)).Data; got != 42 {
		t.Fatalf("consumer read %d, want 42", got)
	}

	// Consumer cannot store through the shared read-only mapping.
	if err := cons.MM.Access(0x6_0000_0000, true); !errors.Is(err, ErrProtection) {
		t.Fatalf("store through shared mapping: %v", err)
	}

	// Teardown: consumer exit leaves frames; producer exit frees them.
	used := o.Dev.Pool().UsedPages()
	o.Exit(cons)
	if o.Dev.Pool().UsedPages() != used {
		t.Fatal("consumer exit freed producer frames")
	}
	o.Exit(prod)
	if o.Dev.Pool().UsedPages() != 0 {
		t.Fatalf("producer exit leaked %d device pages", o.Dev.Pool().UsedPages())
	}
}

func TestPublishOutsideSharedMapping(t *testing.T) {
	o := testNode(t)
	task := o.NewTask("t")
	task.MM.Mmap(vma.VMA{Start: 0x10000, End: 0x11000, Prot: vma.Read | vma.Write, Kind: vma.Anon})
	task.MM.Access(0x10000, true)
	if err := task.MM.Publish(0x10000, 1); err == nil {
		t.Fatal("publish through a local mapping succeeded")
	}
	if err := task.MM.Publish(0x5000000, 1); err == nil {
		t.Fatal("publish through an absent mapping succeeded")
	}
}
