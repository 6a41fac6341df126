package cxl

import (
	"fmt"
	"math/rand"
	"testing"

	"cxlfork/internal/memsim"
)

// TestOccupancyProbeMatchesFresh churns a device through dedup twins,
// metadata allocations, seals, releases, Recover passes and mappings
// that take and drop references outside any arena, and requires the
// memoized probe to equal a fresh Device.Occupancy after every step.
func TestOccupancyProbeMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := dev(t)
		probe := &occupancyProbe{d: d}
		var arenas []*Arena
		var mapped []*memsim.Frame
		live := func() []*Arena {
			var out []*Arena
			for _, a := range arenas {
				if !a.Closed() {
					out = append(out, a)
				}
			}
			return out
		}
		var step int
		check := func(op string) {
			t.Helper()
			if got, want := probe.get(), d.Occupancy(); got != want {
				t.Fatalf("seed %d step %d (%s): probe %+v, fresh %+v", seed, step, op, got, want)
			}
		}
		for ; step < 400; step++ {
			var op string
			la := live()
			switch k := rng.Intn(10); {
			case k < 1 || len(la) == 0:
				op = "new arena"
				a, err := d.NewArena(fmt.Sprintf("a%d", step))
				if err != nil {
					t.Fatal(err)
				}
				arenas = append(arenas, a)
			case k < 5:
				// A small token space makes dedup twins common. The
				// probe is read between the allocation and the track,
				// as a telemetry tick could be.
				op = "track"
				f, _, err := d.AllocToken(uint64(1 + rng.Intn(12)))
				if err != nil {
					continue
				}
				check("alloc")
				la[rng.Intn(len(la))].TrackFrame(f)
			case k < 6:
				op = "meta"
				if a := la[rng.Intn(len(la))]; !a.Sealed() {
					if _, err := a.Alloc(step, int64(rng.Intn(512))); err != nil {
						continue
					}
				}
			case k < 7:
				op = "seal"
				if err := la[rng.Intn(len(la))].Seal(); err != nil {
					t.Fatal(err)
				}
			case k < 8:
				op = "release"
				la[rng.Intn(len(la))].Release()
			case k < 9:
				// A mapping outside any arena: a restored child taking
				// a reference on a checkpoint frame, later dropped.
				op = "map"
				if len(mapped) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(mapped))
					d.Pool().Put(mapped[i])
					mapped = append(mapped[:i], mapped[i+1:]...)
					break
				}
				var frames []*memsim.Frame
				la[rng.Intn(len(la))].ForEachFrame(func(f *memsim.Frame) { frames = append(frames, f) })
				if len(frames) > 0 {
					mapped = append(mapped, frames[rng.Intn(len(frames))].Get())
				}
			default:
				op = "recover"
				d.Recover()
			}
			check(op)
		}
	}
}
