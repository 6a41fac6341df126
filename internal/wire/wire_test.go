package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.PutUint(1, 0)
	e.PutUint(2, 1<<63)
	e.PutInt(3, -12345)
	e.PutBool(4, true)
	e.PutBool(5, false)

	d := NewDecoder(e.Bytes())
	checkUint := func(wantField int, want uint64) {
		f, wt := d.Next()
		if f != wantField || wt != 0 {
			t.Fatalf("Next = %d,%d want field %d", f, wt, wantField)
		}
		if v := d.Uint(); v != want {
			t.Fatalf("field %d = %d, want %d", f, v, want)
		}
	}
	checkUint(1, 0)
	checkUint(2, 1<<63)
	f, _ := d.Next()
	if v := d.Int(); f != 3 || v != -12345 {
		t.Fatalf("int field %d = %d", f, v)
	}
	d.Next()
	if !d.Bool() {
		t.Fatal("bool true lost")
	}
	d.Next()
	if d.Bool() {
		t.Fatal("bool false lost")
	}
	if d.More() || d.Err() != nil {
		t.Fatalf("trailing data or error %v", d.Err())
	}
}

func TestBytesStringRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.PutString(1, "hello, 世界")
	e.PutBytes(2, []byte{0, 1, 2, 255})
	e.PutString(3, "")

	d := NewDecoder(e.Bytes())
	d.Next()
	if s := d.String(); s != "hello, 世界" {
		t.Fatalf("string = %q", s)
	}
	d.Next()
	if b := d.Bytes(); !bytes.Equal(b, []byte{0, 1, 2, 255}) {
		t.Fatalf("bytes = %v", b)
	}
	d.Next()
	if s := d.String(); s != "" {
		t.Fatalf("empty string = %q", s)
	}
}

func TestNestedMessage(t *testing.T) {
	inner := NewEncoder()
	inner.PutUint(1, 7)
	outer := NewEncoder()
	outer.PutMessage(5, inner)

	d := NewDecoder(outer.Bytes())
	if f, _ := d.Next(); f != 5 {
		t.Fatalf("field = %d", f)
	}
	di := NewDecoder(d.Bytes())
	di.Next()
	if v := di.Uint(); v != 7 {
		t.Fatalf("nested = %d", v)
	}
}

func TestSkipUnknownFields(t *testing.T) {
	e := NewEncoder()
	e.PutUint(1, 10)
	e.PutString(2, "skip me")
	e.PutUint(3, 20)

	d := NewDecoder(e.Bytes())
	var got []uint64
	for d.More() {
		if f, wt := d.Next(); f == 2 {
			d.Skip(wt)
			continue
		}
		got = append(got, d.Uint())
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("got = %v", got)
	}
}

func TestCorruptTruncated(t *testing.T) {
	e := NewEncoder()
	e.PutString(1, "some payload")
	b := e.Bytes()
	d := NewDecoder(b[:len(b)-3])
	d.Next()
	if s := d.String(); s != "" || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("truncated payload decoded: %q, err %v", s, d.Err())
	}
}

func TestCorruptVarint(t *testing.T) {
	// 11 continuation bytes overflow the 64-bit accumulator.
	bad := bytes.Repeat([]byte{0x80}, 11)
	d := NewDecoder(bad)
	if d.Next(); !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("overlong varint accepted: err %v", d.Err())
	}
}

// TestStickyError checks the decoder's error model: the first
// malformed read's error sticks, later reads return zero values and
// leave it in place, More reports false, and Fail records a nested
// record's error only when it is the first and not nil.
func TestStickyError(t *testing.T) {
	e := NewEncoder()
	e.PutUint(1, 7)
	e.PutString(2, "tail")
	good := e.Bytes()

	d := NewDecoder(good[:len(good)-1])
	d.Next()
	d.Fail(nil)
	if v := d.Uint(); v != 7 || d.Err() != nil {
		t.Fatalf("first field = %d, err %v", v, d.Err())
	}
	d.Next()
	if s := d.String(); s != "" {
		t.Fatalf("truncated string decoded as %q", s)
	}
	err := d.Err()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if d.More() {
		t.Fatal("More reports true after an error")
	}
	d.Skip(7)
	d.Fail(errors.New("later"))
	if f, wt := d.Next(); f != 0 || wt != 0 || d.Int() != 0 || d.Bool() || d.Err() != err {
		t.Fatalf("reads after the error returned data or replaced it: field %d, wt %d, err %v", f, wt, d.Err())
	}

	nested := errors.New("nested record")
	d = NewDecoder(good)
	d.Fail(nested)
	if d.More() || d.Err() != nested {
		t.Fatalf("Fail did not stick: More %v, err %v", d.More(), d.Err())
	}

	d = NewDecoder([]byte{0x0b, 0x01}) // field 1, wire type 3
	_, wt := d.Next()
	if d.Skip(wt); !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("unknown wire type skipped: err %v", d.Err())
	}
}

func TestIntZigzagProperty(t *testing.T) {
	f := func(v int64) bool {
		e := NewEncoder()
		e.PutInt(1, v)
		d := NewDecoder(e.Bytes())
		d.Next()
		return d.Int() == v && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUintProperty(t *testing.T) {
	f := func(v uint64) bool {
		e := NewEncoder()
		e.PutUint(1, v)
		d := NewDecoder(e.Bytes())
		d.Next()
		return d.Uint() == v && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMixedStreamProperty round-trips a random field sequence.
func TestMixedStreamProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type rec struct {
			field int
			str   bool
			u     uint64
			s     string
		}
		var recs []rec
		e := NewEncoder()
		for i := 0; i < 50; i++ {
			r := rec{field: 1 + rng.Intn(30), str: rng.Intn(2) == 0}
			if r.str {
				buf := make([]byte, rng.Intn(40))
				rng.Read(buf)
				r.s = string(buf)
				e.PutString(r.field, r.s)
			} else {
				r.u = rng.Uint64()
				e.PutUint(r.field, r.u)
			}
			recs = append(recs, r)
		}
		d := NewDecoder(e.Bytes())
		for _, r := range recs {
			if field, _ := d.Next(); field != r.field {
				return false
			}
			if r.str {
				if d.String() != r.s {
					return false
				}
			} else if d.Uint() != r.u {
				return false
			}
		}
		return !d.More() && d.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
