package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/criu"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
	"cxlfork/internal/rfork"
)

// ScalePoint is one clone-count sample of the dedup scaling experiment.
type ScalePoint struct {
	Clones int
	// CXLforkLocalMB is total node-local memory across all clones with
	// CXLfork (read-only state shared on the device).
	CXLforkLocalMB int64
	// CRIULocalMB is the same with CRIU-CXL (no sharing).
	CRIULocalMB int64
	// DeviceMB is CXL device occupancy with CXLfork (one checkpoint,
	// regardless of clone count).
	DeviceMB int64
	// RestoreMean is the mean per-clone CXLfork restore latency — flat
	// across clone counts (constant-time attach; no parent to congest).
	RestoreMean des.Time
}

// ScaleResult is the cluster-wide deduplication extension experiment
// (§2.2's envisioned system, §8's scalability discussion): one
// checkpoint, many clones spread over a larger cluster.
type ScaleResult struct {
	Function string
	Nodes    int
	Points   []ScalePoint
}

// Scale clones one function across an n-node cluster at increasing
// clone counts and reports aggregate memory and restore behaviour.
func Scale(p params.Params, function string, nodes int, cloneCounts []int) (*ScaleResult, error) {
	spec, ok := faas.ByName(function)
	if !ok {
		return nil, fmt.Errorf("scale: unknown function %q", function)
	}
	if nodes < 2 {
		nodes = 2
	}
	if len(cloneCounts) == 0 {
		cloneCounts = []int{1, 2, 4, 8, 16, 32}
	}
	res := &ScaleResult{Function: function, Nodes: nodes}

	for _, n := range cloneCounts {
		cxlLocal, devMB, restore, err := scaleRun(p, spec, nodes, n, true)
		if err != nil {
			return nil, err
		}
		criuLocal, _, _, err := scaleRun(p, spec, nodes, n, false)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ScalePoint{
			Clones:         n,
			CXLforkLocalMB: cxlLocal >> 20,
			CRIULocalMB:    criuLocal >> 20,
			DeviceMB:       devMB >> 20,
			RestoreMean:    restore,
		})
	}
	return res, nil
}

// scaleRun restores n clones round-robin over the cluster and returns
// (total extra local bytes, device bytes, mean restore latency).
func scaleRun(p params.Params, spec faas.Spec, nodes, n int, useCXLfork bool) (int64, int64, des.Time, error) {
	c := cluster.MustNew(p, nodes)
	faas.RegisterFiles(c.FS, p, spec)
	for _, node := range c.Nodes {
		if err := faas.WarmLibraries(node, spec); err != nil {
			return 0, 0, 0, err
		}
	}
	parent, err := faas.NewInstance(c.Node(0), spec)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := parent.ColdInit(); err != nil {
		return 0, 0, 0, err
	}
	if err := parent.PrepareParent(p.CheckpointAfter, nil); err != nil {
		return 0, 0, 0, err
	}

	var mech rfork.Mechanism
	if useCXLfork {
		mech = core.New(c.Dev)
	} else {
		mech = criu.New(c.CXLFS)
	}
	img, err := mech.Checkpoint(parent.Task, "scale")
	if err != nil {
		return 0, 0, 0, err
	}
	parent.Exit()

	before := make([]int, nodes)
	for i, node := range c.Nodes {
		before[i] = node.Mem.UsedPages()
	}

	var restoreSum des.Time
	for i := 0; i < n; i++ {
		node := c.Node(i % nodes)
		t0 := c.Eng.Now()
		child := node.NewTask("clone")
		if err := mech.Restore(child, img, rfork.Options{}); err != nil {
			return 0, 0, 0, err
		}
		restoreSum += c.Eng.Now() - t0
		in := faas.Adopt(child, spec)
		if _, err := in.Invoke(nil); err != nil {
			return 0, 0, 0, err
		}
		// Clones stay alive: the point is aggregate residency.
	}

	var local int64
	for i, node := range c.Nodes {
		local += int64(node.Mem.UsedPages()-before[i]) * int64(p.PageSize)
	}
	dev := c.Dev.UsedBytes()
	return local, dev, restoreSum / des.Time(n), nil
}

// Render prints the scaling table.
func (r *ScaleResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Cluster-wide deduplication — %d live %s clones over %d nodes (extension of §2.2/§8)\n",
		r.Points[len(r.Points)-1].Clones, r.Function, r.Nodes)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Clones\tCXLfork local(MB)\tCRIU local(MB)\tsavings\tdevice(MB)\tmean restore")
	for _, pt := range r.Points {
		savings := "-"
		if pt.CRIULocalMB > 0 {
			savings = fmt.Sprintf("%.0f%%", 100*(1-float64(pt.CXLforkLocalMB)/float64(pt.CRIULocalMB)))
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%d\t%s\n",
			pt.Clones, pt.CXLforkLocalMB, pt.CRIULocalMB, savings, pt.DeviceMB, compact(pt.RestoreMean))
	}
	tw.Flush()
	fmt.Fprintln(w, "One checkpoint serves every clone: device occupancy and restore latency are flat in the clone count.")
}
