// Command cxlinspect builds a checkpoint of one of the built-in
// functions with each mechanism and dumps its layout: where the state
// lives (CXL device vs parent node), how the CXLfork checkpoint's
// rebased page-table and VMA leaves are organized, and what the light
// global-state serialization contains.
//
// Usage:
//
//	cxlinspect -function Bert
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"cxlfork"
)

func main() {
	function := flag.String("function", "Float", "function to checkpoint (see Table 1)")
	verbose := flag.Bool("v", false, "dump the address-space layout and global state records")
	flag.Parse()

	sys, err := cxlfork.NewSystem(cxlfork.DefaultConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlinspect: %v\n", err)
		os.Exit(1)
	}
	fn, err := sys.DeployFunction(0, *function)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlinspect: %v\n", err)
		os.Exit(1)
	}
	if err := fn.Warmup(16); err != nil {
		fmt.Fprintf(os.Stderr, "cxlinspect: %v\n", err)
		os.Exit(1)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "checkpoints of %s after 16 invocations\n\n", *function)
	fmt.Fprintln(tw, "mechanism\tpages\tdirty\tfile\tVMAs\tPT leaves\tVMA leaves\tCXL MB\tparent MB")
	for _, mech := range []cxlfork.MechanismKind{
		cxlfork.CXLfork, cxlfork.CRIUCXL, cxlfork.MitosisCXL,
	} {
		ck, err := sys.Checkpoint(fn, mech, "inspect-"+mech.String())
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlinspect: %v: %v\n", mech, err)
			os.Exit(1)
		}
		info := ck.Describe()
		dash := func(n int) string {
			if n == 0 && mech != cxlfork.CXLfork {
				return "-" // only CXLfork keeps OS structures inspectable on the device
			}
			return fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t%d\t%d\n",
			info.Mechanism, info.DataPages, dash(info.DirtyPages), dash(info.FilePages),
			dash(info.VMAs), dash(info.PageTableLeaves), dash(info.VMALeaves),
			info.CXLBytes>>20, info.ParentBytes>>20)
		ck.Release()
	}
	tw.Flush()

	if *verbose {
		dumpLayout(sys, fn)
	}

	fmt.Println("\nnotes:")
	fmt.Println("  CXLfork: data pages + rebased OS structures live on the CXL device; any node attaches them.")
	fmt.Println("  CRIU-CXL: a serialized image file on the in-CXL filesystem; clean file pages are omitted.")
	fmt.Println("  Mitosis-CXL: a shadow copy pinned in the parent node's DRAM; OS state serialized for transfer.")
}

// dumpLayout prints the parent's address-space layout and descriptor
// table — the state a checkpoint must capture.
func dumpLayout(sys *cxlfork.System, fn *cxlfork.Function) {
	layout := fn.AddressSpace()
	fmt.Printf("\naddress space (%d VMAs):\n", len(layout))
	shown := 0
	for _, v := range layout {
		if shown == 12 && len(layout) > 16 {
			fmt.Printf("  ... %d more private file mappings ...\n", len(layout)-16)
		}
		shown++
		if shown > 12 && len(layout)-shown >= 4 {
			continue
		}
		fmt.Printf("  %s\n", v)
	}
	fmt.Printf("\ndescriptors (%d):\n", len(fn.Descriptors()))
	for _, d := range fn.Descriptors() {
		fmt.Printf("  %s\n", d)
	}
	_ = sys
}
