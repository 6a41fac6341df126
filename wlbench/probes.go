package main

import (
	"math/rand"
	"runtime"
	"time"

	"cxlfork/internal/cachesim"
	"cxlfork/internal/des"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
)

// probes times three layers in isolation, on fixed inputs drawn from
// the run's seed: the LLC model, frame-pool construction and the event
// queue. Traced runs only.
func probes(b *bench) {
	rng := rand.New(rand.NewSource(b.seed))
	p := params.Default()

	// The LLC model at the default 64 MiB, over a working set twice that.
	capPages := int(p.LLCBytes) / p.PageSize
	const accesses = 4 << 20
	keys := make([]cachesim.Line, accesses)
	for i := range keys {
		keys[i] = cachesim.Key(1, uint64(rng.Intn(2*capPages)))
	}
	lru := cachesim.NewPageLRU(capPages)
	sp := b.rec.begin("probe.cachesim", "probes", 0)
	t0 := time.Now()
	for _, k := range keys {
		lru.Access(k)
	}
	d := time.Since(t0)
	b.rec.end(sp)
	b.layer("cachesim.lru_access_ns", float64(d.Nanoseconds())/accesses, "ns")

	// A frame pool the size of one default node's DRAM.
	const poolGiB = 6
	sp = b.rec.begin("probe.memsim", "probes", 0)
	t0 = time.Now()
	pool := memsim.NewPool("probe", memsim.Local, poolGiB*giB, p.PageSize)
	d = time.Since(t0)
	b.rec.end(sp)
	runtime.KeepAlive(pool)
	b.layer("memsim.new_pool_ms_per_gib", d.Seconds()*1000/poolGiB, "ms")

	// An event queue holding a million events; each stepped event
	// schedules a successor, so the queue stays that deep.
	const pending, steps = 1 << 20, 1 << 20
	e := des.NewEngine()
	var tick func()
	tick = func() { e.After(des.Time(1+rng.Int63n(int64(des.Second))), tick) }
	for i := 0; i < pending; i++ {
		e.At(des.Time(rng.Int63n(int64(des.Second))), tick)
	}
	sp = b.rec.begin("probe.des", "probes", 0)
	t0 = time.Now()
	for i := 0; i < steps; i++ {
		e.Step()
	}
	d = time.Since(t0)
	b.rec.end(sp)
	b.layer("des.step_ns_1m_pending", float64(d.Nanoseconds())/steps, "ns")
}
