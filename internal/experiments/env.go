package experiments

import (
	"cxlfork/internal/cluster"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// ExpParams returns the experiment platform parameters: the paper's
// testbed latencies with node DRAM and CXL capacity sized so that a
// full simulation run (backing frame tables included) stays affordable
// on a development machine. Capacities only bound the simulation; the
// mechanisms never come close to exhausting them in the single-function
// measurements.
func ExpParams() params.Params {
	p := params.Default()
	p.NodeDRAMBytes = 6 << 30
	p.CXLBytes = 8 << 30
	return p
}

// NewEnv builds a two-node cluster with every given function's image
// files registered and pre-pulled on all nodes (steady-state serverless
// nodes have warm page caches for function images).
func NewEnv(p params.Params, specs ...faas.Spec) (*cluster.Cluster, error) {
	c, err := cluster.New(p, 2)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		faas.RegisterFiles(c.FS, p, s)
		for _, n := range c.Nodes {
			if err := faas.WarmLibraries(n, s); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}
