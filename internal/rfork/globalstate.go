package rfork

import (
	"fmt"

	"cxlfork/internal/kernel"
	"cxlfork/internal/params"
	"cxlfork/internal/wire"
)

// FDRecord is the serialized form of one descriptor: exactly the
// information needed to re-open it on the restoring node (paper §4.1).
type FDRecord struct {
	Num  int
	Kind kernel.FDKind
	Path string
	Perm uint32
	Pos  int64
}

// GlobalState is the process state that cannot be checkpointed as-is
// because it references node-global OS structures: open descriptors,
// mount points and the PID namespace. It is lightly serialized at
// checkpoint and redone at restore.
type GlobalState struct {
	FDs    []FDRecord
	Mounts []string
	PIDNS  string
	Regs   kernel.Registers
}

// CaptureGlobalState extracts the serializable global state of a task.
func CaptureGlobalState(t *kernel.Task) GlobalState {
	gs := GlobalState{
		Mounts: append([]string(nil), t.NS.Mounts...),
		PIDNS:  t.NS.PIDNS,
		Regs:   t.Regs,
	}
	for _, fd := range t.FDs.All() {
		gs.FDs = append(gs.FDs, FDRecord{
			Num: fd.Num, Kind: fd.Kind, Path: fd.Path, Perm: fd.Perm, Pos: fd.Pos,
		})
	}
	return gs
}

// Field tags for the global-state message.
const (
	gsFieldFD    = 1
	gsFieldMount = 2
	gsFieldPIDNS = 3
	gsFieldRegIP = 4
	gsFieldRegSP = 5
	gsFieldGPR   = 6

	fdFieldNum  = 1
	fdFieldKind = 2
	fdFieldPath = 3
	fdFieldPerm = 4
	fdFieldPos  = 5
)

// Encode serializes the global state with the wire codec.
func (gs GlobalState) Encode() []byte {
	e := wire.NewEncoder()
	for _, fd := range gs.FDs {
		m := wire.NewEncoder()
		m.PutInt(fdFieldNum, int64(fd.Num))
		m.PutUint(fdFieldKind, uint64(fd.Kind))
		m.PutString(fdFieldPath, fd.Path)
		m.PutUint(fdFieldPerm, uint64(fd.Perm))
		m.PutInt(fdFieldPos, fd.Pos)
		e.PutMessage(gsFieldFD, m)
	}
	for _, mnt := range gs.Mounts {
		e.PutString(gsFieldMount, mnt)
	}
	e.PutString(gsFieldPIDNS, gs.PIDNS)
	e.PutUint(gsFieldRegIP, gs.Regs.IP)
	e.PutUint(gsFieldRegSP, gs.Regs.SP)
	for _, r := range gs.Regs.GPR {
		e.PutUint(gsFieldGPR, r)
	}
	return e.Bytes()
}

// DecodeGlobalState parses a serialized global state.
func DecodeGlobalState(blob []byte) (GlobalState, error) {
	var gs GlobalState
	d := wire.NewDecoder(blob)
	gpr := 0
	for d.More() {
		switch field, wt := d.Next(); field {
		case gsFieldFD:
			fd, err := decodeFD(d.Bytes())
			d.Fail(err)
			gs.FDs = append(gs.FDs, fd)
		case gsFieldMount:
			gs.Mounts = append(gs.Mounts, d.String())
		case gsFieldPIDNS:
			gs.PIDNS = d.String()
		case gsFieldRegIP:
			gs.Regs.IP = d.Uint()
		case gsFieldRegSP:
			gs.Regs.SP = d.Uint()
		case gsFieldGPR:
			if v := d.Uint(); gpr < len(gs.Regs.GPR) {
				gs.Regs.GPR[gpr] = v
				gpr++
			}
		default:
			d.Skip(wt)
		}
	}
	return gs, d.Err()
}

func decodeFD(b []byte) (FDRecord, error) {
	var fd FDRecord
	d := wire.NewDecoder(b)
	for d.More() {
		switch field, wt := d.Next(); field {
		case fdFieldNum:
			fd.Num = int(d.Int())
		case fdFieldKind:
			fd.Kind = kernel.FDKind(d.Uint())
		case fdFieldPath:
			fd.Path = d.String()
		case fdFieldPerm:
			fd.Perm = uint32(d.Uint())
		case fdFieldPos:
			fd.Pos = d.Int()
		default:
			d.Skip(wt)
		}
	}
	return fd, d.Err()
}

// RestoreGlobalState redoes global state on the restoring node: re-opens
// every descriptor (verifying the path exists on the shared root
// filesystem) and restores mounts and the PID namespace. Network and
// cgroup configuration are deliberately inherited from the calling task
// (paper §4.2). It charges per-descriptor and namespace costs.
func RestoreGlobalState(child *kernel.Task, gs GlobalState) error {
	for _, fd := range gs.FDs {
		if fd.Kind == kernel.FDFile {
			if _, err := child.OS.FS.Lookup(fd.Path); err != nil {
				return fmt.Errorf("rfork: restoring fd %d: %w", fd.Num, err)
			}
		}
		if _, err := child.FDs.OpenAt(fd.Num, fd.Kind, fd.Path, fd.Perm, fd.Pos); err != nil {
			return err
		}
		child.OS.Eng.Advance(params.FDReopen)
	}
	child.NS.Mounts = append([]string(nil), gs.Mounts...)
	child.NS.PIDNS = gs.PIDNS
	child.OS.Eng.Advance(params.NamespaceRestore)
	child.Regs = gs.Regs
	return nil
}
