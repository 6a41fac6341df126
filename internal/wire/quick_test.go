package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// record is the quick generator's unit: one field of every wire type.
type record struct {
	U    uint64
	I    int64
	B    bool
	Blob []byte
	S    string
}

// put encodes the record's fields with fixed tags.
func (r record) put(enc *Encoder) {
	enc.PutUint(1, r.U)
	enc.PutInt(2, r.I)
	enc.PutBool(3, r.B)
	enc.PutBytes(4, r.Blob)
	enc.PutString(5, r.S)
}

// get decodes what put wrote, failing the test on any mismatch.
func (r record) get(t *testing.T, d *Decoder) bool {
	t.Helper()
	for _, want := range []struct {
		field int
		read  func() any
		want  any
	}{
		{1, func() any { return d.Uint() }, r.U},
		{2, func() any { return d.Int() }, r.I},
		{3, func() any { return d.Bool() }, r.B},
		{4, func() any { return string(d.Bytes()) }, string(r.Blob)},
		{5, func() any { return d.String() }, r.S},
	} {
		if field, _ := d.Next(); field != want.field {
			t.Logf("field %d: got %d, err %v", want.field, field, d.Err())
			return false
		}
		if got := want.read(); got != want.want || d.Err() != nil {
			t.Logf("field %d: got %v (err %v), want %v", want.field, got, d.Err(), want.want)
			return false
		}
	}
	return true
}

// TestQuickFieldRoundTrip checks that every field type round-trips
// through encode/decode for arbitrary values, including the varint
// edge cases quick likes to find (sign flips, high bits, empty blobs).
func TestQuickFieldRoundTrip(t *testing.T) {
	prop := func(r record) bool {
		enc := NewEncoder()
		r.put(enc)
		return r.get(t, NewDecoder(enc.Bytes()))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMessageRoundTrip nests records as length-delimited messages —
// the trace and checkpoint formats' envelope-of-records shape — and
// checks the nesting round-trips and that Skip jumps whole messages.
func TestQuickMessageRoundTrip(t *testing.T) {
	prop := func(records []record) bool {
		enc := NewEncoder()
		enc.PutUint(1, uint64(len(records)))
		for _, r := range records {
			m := NewEncoder()
			r.put(m)
			enc.PutMessage(2, m)
		}
		d := NewDecoder(enc.Bytes())
		if f, _ := d.Next(); f != 1 || d.Uint() != uint64(len(records)) {
			return false
		}
		for _, r := range records {
			if f, _ := d.Next(); f != 2 || !r.get(t, NewDecoder(d.Bytes())) {
				return false
			}
		}
		return !d.More() && d.Err() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSkipUnknownFields appends unknown fields after known ones;
// a decoder that skips what it does not understand must still land on
// the trailing sentinel. This is the format's forward-compatibility
// contract (old readers, new traces).
func TestQuickSkipUnknownFields(t *testing.T) {
	prop := func(r record, sentinel uint64) bool {
		enc := NewEncoder()
		r.put(enc)
		enc.PutUint(99, sentinel)
		d := NewDecoder(enc.Bytes())
		for d.More() {
			field, wt := d.Next()
			if field == 99 {
				return d.Uint() == sentinel && d.Err() == nil
			}
			d.Skip(wt)
		}
		return false // sentinel never reached
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEnvelopeRoundTrip seals and reopens arbitrary payloads.
func TestQuickEnvelopeRoundTrip(t *testing.T) {
	prop := func(payload []byte) bool {
		got, err := OpenEnvelope(SealEnvelope(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEnvelopeDetectsBitFlips flips one arbitrary bit anywhere in
// a sealed envelope: either the open fails with ErrCorrupt, or — when
// the flip lands in the length varint's redundant encoding space — it
// must NOT succeed with a payload different from the original.
func TestQuickEnvelopeDetectsBitFlips(t *testing.T) {
	prop := func(payload []byte, pos, bit uint) bool {
		sealed := SealEnvelope(payload)
		bad := append([]byte(nil), sealed...)
		bad[pos%uint(len(bad))] ^= 1 << (bit % 8)
		if bytes.Equal(bad, sealed) {
			return true
		}
		got, err := OpenEnvelope(bad)
		if err != nil {
			return errors.Is(err, ErrCorrupt)
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
