package cluster

import (
	"fmt"

	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/fabric"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/fsim"
	"cxlfork/internal/kernel"
	"cxlfork/internal/params"
	"cxlfork/internal/replica"
	"cxlfork/internal/telemetry"
	"cxlfork/internal/trace"
	"cxlfork/internal/xray"
)

// Cluster is a set of nodes sharing a CXL device pool and root
// filesystem. Dev is pool device 0 — the ingest device every mechanism
// checkpoints into; the replica layer fans sealed images out to the
// rest of the pool.
type Cluster struct {
	P     params.Params
	Eng   *des.Engine
	Dev   *cxl.Device
	Pool  *cxl.DevicePool
	FS    *fsim.FS
	CXLFS *fsim.CXLFS
	Nodes []*kernel.OS

	// Faults is the cluster's fault-injection plan. It is always
	// non-nil; with no rules injected it reports no faults, so the happy
	// path pays only a few predictable branches.
	Faults *faultinject.Plan

	// Trace is the cluster-wide virtual-time tracer, shared by every
	// node, or nil when params.TraceEnabled is false. Tracing is purely
	// observational — it never advances any clock — so enabling it
	// cannot change simulation results.
	Trace *trace.Tracer

	// Telem is the cluster-wide telemetry registry, shared by every
	// layer, or nil when params.TelemetryEnabled is false. Like the
	// tracer, its probes are read-only observers on the virtual clock,
	// so enabling sampling cannot change simulation results
	// (DESIGN.md §11).
	Telem *telemetry.Registry

	// Sim fans independent simulation legs out to params.SimWorkers
	// goroutines (DESIGN.md §13). The coupled replay on Eng stays
	// sequential; the pool only parallelizes legs that share nothing,
	// so results are byte-identical at any worker count.
	Sim *des.Pool

	// XRay is the critical-path latency attribution engine, or nil
	// when params.XRayEnabled is false. Like the tracer and the
	// telemetry registry it is a pure observer: the porter feeds it
	// per-request component timings and the fabric net feeds it
	// per-link contention, and enabling it changes no simulated result
	// (DESIGN.md §16).
	XRay *xray.Attributor

	// Topo is the built fabric topology when params.Topology is set,
	// else nil (flat single-hop model). The device pool is placed on
	// it and its device count overrides params.CXLDevices.
	Topo *fabric.Topology
	// Net is the fabric contention model, non-nil only when Topo is
	// present and non-trivial: a trivial (1-switch/1-device, default
	// links) topology adds nothing over the flat model, so the porter
	// skips fabric charging entirely and stays byte-identical to the
	// pre-topology results (DESIGN.md §14).
	Net *fabric.Net
}

// New builds a cluster of n nodes with the given parameters. All nodes
// share one virtual clock: the simulation is sequential, and concurrent
// scenarios are expressed through the engine's event queue. An
// unparseable topology or an unknown placement policy is an error.
func New(p params.Params, n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	if err := replica.CheckPlacement(p.PlacementPolicy); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	eng := des.NewEngine()
	var topo *fabric.Topology
	ndev := p.CXLDevices
	if p.Topology != "" {
		spec, err := fabric.Parse(p.Topology)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		topo, err = spec.Build(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		ndev = topo.Devices()
	}
	pool := cxl.NewDevicePool(p, ndev)
	if topo != nil {
		if err := pool.Place(topo); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	dev := pool.Device(0)
	fs := fsim.NewFS()
	c := &Cluster{
		P:      p,
		Eng:    eng,
		Dev:    dev,
		Pool:   pool,
		FS:     fs,
		CXLFS:  fsim.NewCXLFS(dev),
		Faults: faultinject.NewPlan(eng, 1),
		Sim:    des.NewPool(p.SimWorkers),
		Topo:   topo,
	}
	if topo != nil && !topo.Trivial() {
		c.Net = fabric.NewNet(topo)
	}
	if p.XRayEnabled {
		c.XRay = xray.New(topo, p.XRayExemplars)
		if c.Net != nil {
			c.Net.SetObserver(c.XRay.ObserveLink)
		}
	}
	if p.TraceEnabled {
		c.Trace = trace.New(p.TraceBufferCap)
	}
	if p.TelemetryEnabled {
		c.Telem = telemetry.New(p.SampleEvery, p.TelemetrySeriesCap)
		pool.RegisterTelemetry(c.Telem)
		c.Faults.RegisterTelemetry(c.Telem)
		if c.Net != nil {
			c.Net.RegisterTelemetry(c.Telem)
		}
	}
	for i := 0; i < n; i++ {
		node := kernel.NewOS(fmt.Sprintf("node%d", i), p, eng, dev, fs, p.NodeDRAMBytes)
		node.Index = i
		node.Trace = c.Trace
		node.RegisterTelemetry(c.Telem)
		c.Nodes = append(c.Nodes, node)
	}
	return c, nil
}

// MustNew is New for contexts where n is a constant and an error is a
// programming bug (tests, experiment drivers).
func MustNew(p params.Params, n int) *Cluster {
	c, err := New(p, n)
	if err != nil {
		panic(err)
	}
	return c
}

// Node returns node i.
func (c *Cluster) Node(i int) *kernel.OS { return c.Nodes[i] }

// HostOf maps node i onto its fabric host index. Clusters with more
// nodes than declared hosts wrap round-robin, so a small topology can
// still serve a large replay; without a topology the mapping is
// identity.
func (c *Cluster) HostOf(i int) int {
	if c.Topo == nil || c.Topo.Hosts() == 0 {
		return i
	}
	return i % c.Topo.Hosts()
}

// WarmAll pulls a file into every node's page cache (image pre-pull, so
// library faults are page-cache minors on steady-state nodes).
func (c *Cluster) WarmAll(path string) error {
	for _, n := range c.Nodes {
		if err := n.WarmFile(path); err != nil {
			return err
		}
	}
	return nil
}

// LocalUsedBytes returns the summed local DRAM usage across nodes.
func (c *Cluster) LocalUsedBytes() int64 {
	var total int64
	for _, n := range c.Nodes {
		total += n.Mem.UsedBytes()
	}
	return total
}
