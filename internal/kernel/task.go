package kernel

import (
	"fmt"
	"sort"
)

// TaskState is the lifecycle state of a task.
type TaskState int

// Task states.
const (
	TaskRunning TaskState = iota
	TaskExited
)

// Registers is the checkpointable CPU context (paper Fig. 4a step 3).
type Registers struct {
	IP, SP uint64
	GPR    [16]uint64
}

// Task is one process.
type Task struct {
	PID   int
	Name  string
	OS    *OS
	MM    *MM
	FDs   *FDTable
	NS    Namespaces
	Regs  Registers
	State TaskState

	// Invocations counts completed function invocations; CXLporter
	// checkpoints after the 16th (paper §5).
	Invocations int
}

func (t *Task) String() string {
	return fmt.Sprintf("%s/pid%d(%s)", t.OS.Name, t.PID, t.Name)
}

// FDKind distinguishes descriptor types for global-state serialization.
type FDKind int

// Descriptor kinds.
const (
	FDFile FDKind = iota
	FDSocket
)

func (k FDKind) String() string {
	if k == FDSocket {
		return "socket"
	}
	return "file"
}

// FD is one open descriptor. Path and Perm are exactly what CXLfork
// serializes for global state (paper §4.1 step 8): the restoring node
// re-opens the path with the same permissions.
type FD struct {
	Num  int
	Kind FDKind
	Path string
	Perm uint32
	Pos  int64
}

// FDTable is a task's descriptor table.
type FDTable struct {
	fds  map[int]*FD
	next int
}

// NewFDTable returns an empty table with stdio reserved.
func NewFDTable() *FDTable {
	return &FDTable{fds: make(map[int]*FD), next: 3}
}

// Open adds a descriptor and returns it.
func (t *FDTable) Open(kind FDKind, path string, perm uint32) *FD {
	fd := &FD{Num: t.next, Kind: kind, Path: path, Perm: perm}
	t.next++
	t.fds[fd.Num] = fd
	return fd
}

// OpenAt restores a descriptor at a specific number (restore path).
func (t *FDTable) OpenAt(num int, kind FDKind, path string, perm uint32, pos int64) (*FD, error) {
	if _, ok := t.fds[num]; ok {
		return nil, fmt.Errorf("kernel: fd %d already open", num)
	}
	fd := &FD{Num: num, Kind: kind, Path: path, Perm: perm, Pos: pos}
	t.fds[num] = fd
	if num >= t.next {
		t.next = num + 1
	}
	return fd, nil
}

// Len returns the number of open descriptors.
func (t *FDTable) Len() int { return len(t.fds) }

// All returns descriptors sorted by number.
func (t *FDTable) All() []*FD {
	out := make([]*FD, 0, len(t.fds))
	for _, fd := range t.fds {
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Num < out[j].Num })
	return out
}

// clone duplicates the table (local fork shares descriptors by value
// here; descriptor offsets diverge after the fork, which this model does
// not track further).
func (t *FDTable) clone() *FDTable {
	c := &FDTable{fds: make(map[int]*FD, len(t.fds)), next: t.next}
	for n, fd := range t.fds {
		cp := *fd
		c.fds[n] = &cp
	}
	return c
}

// Namespaces is the task's namespace and control-group configuration.
// Mounts and PIDNS are checkpointed/restored; Net and Cgroup are
// "reconfigurable" state inherited from the restore-calling process so
// clones can land directly in new containers (paper §4.1-4.2).
type Namespaces struct {
	Mounts []string
	PIDNS  string
	NetNS  string
	Cgroup string
}

// DefaultNamespaces returns the host namespaces.
func DefaultNamespaces() Namespaces {
	return Namespaces{
		Mounts: []string{"/", "/proc", "/sys"},
		PIDNS:  "pidns-host",
		NetNS:  "netns-host",
		Cgroup: "/",
	}
}
