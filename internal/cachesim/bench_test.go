package cachesim

import "testing"

func BenchmarkPageLRUHit(b *testing.B) {
	c := NewPageLRU(16384)
	for i := uint64(0); i < 16384; i++ {
		c.Access(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i % 16384))
	}
}

func BenchmarkPageLRUThrash(b *testing.B) {
	c := NewPageLRU(16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i % 40000))
	}
}
