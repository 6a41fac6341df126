package rfork

import (
	"cxlfork/internal/pt"
	"cxlfork/internal/vma"
	"cxlfork/internal/wire"
)

// VMA record field tags.
const (
	vmaFieldID    = 1
	vmaFieldStart = 2
	vmaFieldEnd   = 3
	vmaFieldProt  = 4
	vmaFieldKind  = 5
	vmaFieldPath  = 6
	vmaFieldOff   = 7
	vmaFieldName  = 8
)

// EncodeVMA serializes one VMA record (CRIU images and Mitosis' OS-state
// transfer both describe the address-space layout this way).
func EncodeVMA(v vma.VMA) []byte {
	e := wire.NewEncoder()
	e.PutInt(vmaFieldID, int64(v.ID))
	e.PutUint(vmaFieldStart, uint64(v.Start))
	e.PutUint(vmaFieldEnd, uint64(v.End))
	e.PutUint(vmaFieldProt, uint64(v.Prot))
	e.PutUint(vmaFieldKind, uint64(v.Kind))
	if v.Kind == vma.FilePrivate {
		e.PutString(vmaFieldPath, v.Path)
		e.PutInt(vmaFieldOff, v.FileOff)
	}
	if v.Name != "" {
		e.PutString(vmaFieldName, v.Name)
	}
	return e.Bytes()
}

// DecodeVMA parses one VMA record.
func DecodeVMA(b []byte) (vma.VMA, error) {
	var v vma.VMA
	d := wire.NewDecoder(b)
	for d.More() {
		switch field, wt := d.Next(); field {
		case vmaFieldID:
			v.ID = int(d.Int())
		case vmaFieldStart:
			v.Start = pt.VirtAddr(d.Uint())
		case vmaFieldEnd:
			v.End = pt.VirtAddr(d.Uint())
		case vmaFieldProt:
			v.Prot = vma.Prot(d.Uint())
		case vmaFieldKind:
			v.Kind = vma.Kind(d.Uint())
		case vmaFieldPath:
			v.Path = d.String()
		case vmaFieldOff:
			v.FileOff = d.Int()
		case vmaFieldName:
			v.Name = d.String()
		default:
			d.Skip(wt)
		}
	}
	return v, d.Err()
}
