package kernel

import (
	"fmt"
	"sort"

	"cxlfork/internal/cachesim"
	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/fsim"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
	"cxlfork/internal/telemetry"
	"cxlfork/internal/tlbsim"
	"cxlfork/internal/trace"
)

// OS is one node's operating system instance.
type OS struct {
	// Name identifies the node ("node0").
	Name string
	// Index is the node's position in its cluster (0 for standalone
	// instances). Fault-injection plans address nodes by this index.
	Index int
	// P is the platform cost model.
	P params.Params
	// Eng is the node's virtual clock. Nodes in one cluster share an
	// engine.
	Eng *des.Engine
	// Mem is the node-local DRAM pool.
	Mem *memsim.Pool
	// Dev is the shared CXL device reachable over the fabric.
	Dev *cxl.Device
	// LLC models the node's last-level cache at page granularity.
	LLC *cachesim.PageLRU
	// TLB models the node's translation caches.
	TLB *tlbsim.TLB
	// FS is the cluster-shared root filesystem.
	FS *fsim.FS
	// PageCache is the node's file page cache.
	PageCache *fsim.PageCache
	// Trace is the cluster-shared virtual-time tracer, or nil when
	// tracing is disabled. All emission sites are nil-safe, so the
	// disabled path costs one pointer test.
	Trace *trace.Tracer
	// Telem is the cluster-shared telemetry registry, or nil when
	// sampling is disabled (DESIGN.md §11).
	Telem *telemetry.Registry
	// Lane-pipeline accumulation counters, nil when telemetry is off
	// (nil *Counter handles absorb updates).
	laneBusy   *telemetry.Counter
	laneShards *telemetry.Counter
	streamWork *telemetry.Counter

	nextPID  int
	nextASID uint32
	tasks    map[int]*Task

	// Faults aggregates fault statistics across all tasks on the node.
	Faults FaultStats
}

// NewOS boots an OS instance on a node with dramBytes of local memory.
func NewOS(name string, p params.Params, eng *des.Engine, dev *cxl.Device, fs *fsim.FS, dramBytes int64) *OS {
	pool := memsim.NewPool(name+"-dram", memsim.Local, dramBytes, p.PageSize)
	return &OS{
		Name:      name,
		P:         p,
		Eng:       eng,
		Mem:       pool,
		Dev:       dev,
		LLC:       cachesim.NewPageLRU(int(p.LLCBytes / int64(p.PageSize))),
		TLB:       tlbsim.New(1536),
		FS:        fs,
		PageCache: fsim.NewPageCache(pool),
		nextPID:   1,
		nextASID:  1,
		tasks:     make(map[int]*Task),
	}
}

// Tasks returns the number of live tasks.
func (o *OS) Tasks() int { return len(o.tasks) }

// Task returns the task with the given PID, or nil.
func (o *OS) Task(pid int) *Task {
	return o.tasks[pid]
}

// ForEachTask visits every live task in PID order (deterministic), for
// audits and invariant checkers.
func (o *OS) ForEachTask(fn func(*Task)) {
	pids := make([]int, 0, len(o.tasks))
	for pid := range o.tasks {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		fn(o.tasks[pid])
	}
}

// MemUtilization returns local DRAM occupancy in [0,1].
func (o *OS) MemUtilization() float64 { return o.Mem.Utilization() }

// allocASID hands out address-space IDs for cache/TLB keys.
func (o *OS) allocASID() uint32 {
	id := o.nextASID
	o.nextASID++
	return id
}

// NewTask creates an empty task (no address space content) and charges
// task-creation cost. name labels the task for diagnostics.
func (o *OS) NewTask(name string) *Task {
	o.Trace.Emit(trace.None, o.Index, trace.TrackOps, trace.CatOp, "task-create", o.Eng.Now(), params.TaskCreate, 0, 0)
	o.Eng.Advance(params.TaskCreate)
	t := &Task{
		PID:   o.nextPID,
		Name:  name,
		OS:    o,
		FDs:   NewFDTable(),
		NS:    DefaultNamespaces(),
		State: TaskRunning,
	}
	o.nextPID++
	t.MM = newMM(o)
	o.tasks[t.PID] = t
	return t
}

// Exit tears down a task: frees its locally-owned frames, invalidates
// cache and TLB state, and drops any checkpoint references. Exiting is
// off the latency-critical path, so no time is charged.
func (o *OS) Exit(t *Task) {
	if t.State == TaskExited {
		return
	}
	t.State = TaskExited
	t.MM.teardown()
	delete(o.tasks, t.PID)
}

// WarmFile pulls every page of a file into the node's page cache (image
// pre-pull). Used at cluster setup so that library faults hit the page
// cache, matching a steady-state serverless node.
func (o *OS) WarmFile(path string) error {
	f, err := o.FS.Lookup(path)
	if err != nil {
		return err
	}
	n := o.P.Pages(f.Size)
	for i := 0; i < n; i++ {
		if _, _, err := o.PageCache.Get(f, i); err != nil {
			return fmt.Errorf("kernel: warming %q: %w", path, err)
		}
	}
	return nil
}
