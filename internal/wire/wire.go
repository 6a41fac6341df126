package wire

import (
	"errors"
	"fmt"
)

// Wire types, mirroring protobuf.
const (
	typeVarint = 0
	typeBytes  = 2
)

// ErrCorrupt is returned when a buffer cannot be decoded.
var ErrCorrupt = errors.New("wire: corrupt buffer")

// ErrChecksum is returned when an envelope's payload hash does not match
// its recorded checksum. It wraps ErrCorrupt, so callers that only care
// about "this image is bad" can test for ErrCorrupt alone.
var ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)

// Encoder appends tagged fields to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded size so far.
func (e *Encoder) Len() int { return len(e.buf) }

func (e *Encoder) uvarint(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

func (e *Encoder) key(field, wt int) {
	e.uvarint(uint64(field)<<3 | uint64(wt))
}

// PutUint encodes an unsigned field.
func (e *Encoder) PutUint(field int, v uint64) {
	e.key(field, typeVarint)
	e.uvarint(v)
}

// PutInt encodes a signed field with zigzag.
func (e *Encoder) PutInt(field int, v int64) {
	e.PutUint(field, uint64(v<<1)^uint64(v>>63))
}

// PutBool encodes a boolean field.
func (e *Encoder) PutBool(field int, v bool) {
	var u uint64
	if v {
		u = 1
	}
	e.PutUint(field, u)
}

// PutBytes encodes a length-delimited field.
func (e *Encoder) PutBytes(field int, b []byte) {
	e.key(field, typeBytes)
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// PutString encodes a string field.
func (e *Encoder) PutString(field int, s string) {
	e.key(field, typeBytes)
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// PutMessage encodes a nested message field.
func (e *Encoder) PutMessage(field int, m *Encoder) {
	e.PutBytes(field, m.Bytes())
}

// Decoder reads tagged fields from a buffer. Its error is sticky: the
// first malformed read records an error wrapping ErrCorrupt, every
// later read returns the zero value, and More reports false, so a
// decode loop assigns what it reads and checks Err once, after the
// loop.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a buffer.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// More reports whether bytes remain and no read has failed.
func (d *Decoder) More() bool { return d.err == nil && d.off < len(d.buf) }

// Err returns the first error a read recorded, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records err, the error of a nested record decoded from this
// decoder's bytes, unless an earlier error is recorded. A nil err is
// ignored.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) uvarint() uint64 {
	var v uint64
	for shift := uint(0); d.err == nil; shift += 7 {
		if d.off >= len(d.buf) || shift >= 64 {
			d.err = ErrCorrupt
			break
		}
		b := d.buf[d.off]
		d.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
	return 0
}

// Next reads the next field key. It returns the field number and wire
// type.
func (d *Decoder) Next() (field, wt int) {
	k := d.uvarint()
	return int(k >> 3), int(k & 7)
}

// Uint reads a varint payload.
func (d *Decoder) Uint() uint64 { return d.uvarint() }

// Int reads a zigzag varint payload.
func (d *Decoder) Int() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads a boolean payload.
func (d *Decoder) Bool() bool { return d.uvarint() != 0 }

// Bytes reads a length-delimited payload. The returned slice aliases the
// input buffer.
func (d *Decoder) Bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off) < n {
		d.err = ErrCorrupt
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// String reads a string payload.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Skip discards a payload of the given wire type.
func (d *Decoder) Skip(wt int) {
	switch wt {
	case typeVarint:
		d.uvarint()
	case typeBytes:
		d.Bytes()
	default:
		d.Fail(fmt.Errorf("%w: unknown wire type %d", ErrCorrupt, wt))
	}
}

// Checksum returns the FNV-1a 64-bit hash of b, the per-record checksum
// the checkpoint formats store next to their serialized payloads.
func Checksum(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Envelope field tags.
const (
	envFieldPayload = 1
	envFieldSum     = 2
)

// SealEnvelope wraps payload in a checksummed envelope. Decoders call
// OpenEnvelope to verify the hash before the payload is interpreted, so
// a torn or bit-flipped checkpoint record surfaces as an error instead
// of silently restoring garbage state.
func SealEnvelope(payload []byte) []byte {
	e := NewEncoder()
	e.PutBytes(envFieldPayload, payload)
	e.PutUint(envFieldSum, Checksum(payload))
	return e.Bytes()
}

// OpenEnvelope verifies and unwraps a SealEnvelope buffer. It returns
// ErrChecksum when the hash does not match or the envelope is missing
// either field, and ErrCorrupt when the framing itself cannot be parsed.
func OpenEnvelope(b []byte) ([]byte, error) {
	d := NewDecoder(b)
	var payload []byte
	var sum uint64
	var havePayload, haveSum bool
	for d.More() {
		switch field, wt := d.Next(); field {
		case envFieldPayload:
			payload, havePayload = d.Bytes(), true
		case envFieldSum:
			sum, haveSum = d.Uint(), true
		default:
			d.Skip(wt)
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !havePayload || !haveSum {
		return nil, fmt.Errorf("%w: incomplete envelope", ErrChecksum)
	}
	if got := Checksum(payload); got != sum {
		return nil, fmt.Errorf("%w: payload hash %#x, recorded %#x", ErrChecksum, got, sum)
	}
	return payload, nil
}
