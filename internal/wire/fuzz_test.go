package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecoder exercises the decoder against arbitrary byte streams: it
// must never panic or loop, only return data or an error wrapping
// ErrCorrupt, and the first error must stick: More reports false and
// every later read returns the zero value.
func FuzzDecoder(f *testing.F) {
	seed := NewEncoder()
	seed.PutUint(1, 42)
	seed.PutString(2, "hello")
	seed.PutInt(3, -7)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80})
	f.Add([]byte{0x0a, 0xff, 0xff})
	f.Add([]byte{0x0b, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for i := 0; i < 10_000 && d.More(); i++ {
			_, wt := d.Next()
			d.Skip(wt)
		}
		err := d.Err()
		if err == nil {
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
		if d.More() {
			t.Fatal("More reports true after an error")
		}
		if field, wt := d.Next(); field != 0 || wt != 0 || d.Uint() != 0 || d.Bytes() != nil || d.Err() != err {
			t.Fatal("a read after an error returned data or replaced the error")
		}
	})
}

// FuzzOpenEnvelope exercises the checksummed envelope against the
// corrupted-checkpoint corpus: truncated records, bit-flipped varints,
// and bad checksums. The invariants: OpenEnvelope never panics, every
// failure wraps ErrCorrupt, and a pristine re-seal of whatever payload
// it accepts must round-trip.
func FuzzOpenEnvelope(f *testing.F) {
	payload := []byte("global-state: fds=4 mounts=/ pidns=init")
	sealed := SealEnvelope(payload)
	f.Add(sealed)
	f.Add(SealEnvelope(nil))
	// Truncations at several depths (torn writes).
	for _, n := range []int{0, 1, 2, len(sealed) / 2, len(sealed) - 1} {
		f.Add(sealed[:n])
	}
	// Bit-flipped key varint, payload byte, and checksum byte.
	for _, i := range []int{0, 3, len(sealed) - 1} {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x40
		f.Add(bad)
	}
	f.Add([]byte{0x80, 0x80, 0x80, 0x80})
	// Nested records (a version varint, then one nested message per
	// span-like record), pristine and with a flipped byte inside a
	// nested message.
	nested := sealedNestedEnvelope()
	f.Add(nested)
	for _, i := range []int{4, len(nested) / 2} {
		bad := append([]byte(nil), nested...)
		bad[i] ^= 0x10
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := OpenEnvelope(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted payloads must survive a seal/open round trip.
		again, err := OpenEnvelope(SealEnvelope(got))
		if err != nil || !bytes.Equal(again, got) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// sealedNestedEnvelope builds a payload of nested messages: field 1
// is a format version, and each field 2 is one nested record with the
// fields of a trace span (name, category, node, track, begin, duration,
// parent, bytes, pages).
func sealedNestedEnvelope() []byte {
	enc := NewEncoder()
	enc.PutUint(1, 1)
	for i, name := range []string{"checkpoint", "copy", "pt-leaf"} {
		ev := NewEncoder()
		ev.PutString(1, name)
		ev.PutString(2, "op")
		ev.PutUint(3, uint64(i%2))  // node
		ev.PutUint(4, uint64(i))    // track
		ev.PutInt(5, int64(i)*1000) // begin
		ev.PutInt(6, 500)           // dur
		ev.PutInt(7, int64(i))      // parent
		ev.PutInt(8, 1<<20)         // bytes
		ev.PutInt(9, 256)           // pages
		enc.PutMessage(2, ev)
	}
	return SealEnvelope(enc.Bytes())
}
