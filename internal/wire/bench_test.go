package wire

import "testing"

func BenchmarkEncodeRecord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEncoder()
		e.PutUint(1, uint64(i))
		e.PutString(2, "/runtime/Bert/lib042.so")
		e.PutInt(3, -12345)
		e.PutBool(4, true)
		_ = e.Bytes()
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	e := NewEncoder()
	e.PutUint(1, 42)
	e.PutString(2, "/runtime/Bert/lib042.so")
	e.PutInt(3, -12345)
	e.PutBool(4, true)
	buf := e.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		for d.More() {
			_, wt := d.Next()
			d.Skip(wt)
		}
		if err := d.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
