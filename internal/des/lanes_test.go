package des

import "testing"

func mkShards(n, units int, setup, unitCost Time) []Shard {
	shards := make([]Shard, n)
	for i := range shards {
		shards[i] = Shard{Setup: setup, Units: units, UnitCost: unitCost}
	}
	return shards
}

func TestMakespanSingleLaneIsSerialSum(t *testing.T) {
	cases := [][]Shard{
		nil,
		{},
		{{Setup: 500}},
		{{Units: 100, UnitCost: 7}},
		mkShards(9, 512, 2*Microsecond, 510),
		{{Setup: 10, Units: 3, UnitCost: 5}, {Setup: 0, Units: 1000, UnitCost: 1}, {Setup: 999}},
	}
	for i, shards := range cases {
		var want Time
		for _, s := range shards {
			want += s.Serial()
		}
		// One lane must charge exactly the serial sum regardless of the
		// stream count and never pay the dispatch overhead, both in the
		// event loop and in Pipeline's one-lane shortcut.
		for _, streams := range []int{1, 6, 64} {
			if got := makespan(1, streams, 300, shards, nil); got != want {
				t.Fatalf("case %d streams=%d: makespan %d, want serial %d", i, streams, got, want)
			}
			if got := Pipeline(1, streams, 300, shards, nil); got != want {
				t.Fatalf("case %d streams=%d: one-lane pipeline %d, want serial %d", i, streams, got, want)
			}
		}
	}
}

func TestMakespanMonotonicInLanes(t *testing.T) {
	shards := mkShards(12, 512, 2*Microsecond, 510)
	prev := makespan(1, 6, 300, shards, nil)
	for _, lanes := range []int{2, 4, 8} {
		got := makespan(lanes, 6, 300, shards, nil)
		if got > prev {
			t.Fatalf("makespan grew with lanes: %d lanes %d > previous %d", lanes, got, prev)
		}
		prev = got
	}
}

func TestMakespanFourLanesAtLeastTwice(t *testing.T) {
	// A Fig.-style checkpoint workload: 12 page-table leaves of 512
	// pages each, CXL-write-dominated. With 6 fabric streams, 4 lanes
	// must recover at least 2x (the ISSUE acceptance bar).
	shards := mkShards(12, 512, 2*Microsecond, 510)
	one := makespan(1, 6, 300, shards, nil)
	four := makespan(4, 6, 300, shards, nil)
	if four*2 > one {
		t.Fatalf("4-lane makespan %d not >=2x faster than 1-lane %d", four, one)
	}
}

func TestMakespanStreamCapBoundsSpeedup(t *testing.T) {
	// With 2 streams, copy-dominated work cannot speed up beyond 2x no
	// matter how many lanes: the fabric is the bottleneck.
	shards := mkShards(16, 512, 0, 510)
	one := makespan(1, 2, 0, shards, nil)
	many := makespan(16, 2, 0, shards, nil)
	if many*2 < one {
		t.Fatalf("16 lanes on 2 streams sped up beyond 2x: %d vs serial %d", many, one)
	}
	if many >= one {
		t.Fatalf("16 lanes on 2 streams gave no speedup: %d vs serial %d", many, one)
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// The makespan can never beat the slowest single shard, nor the
	// aggregate copy volume divided by the stream count.
	shards := []Shard{
		{Setup: Microsecond, Units: 2048, UnitCost: 510},
		{Setup: Microsecond, Units: 64, UnitCost: 510},
		{Setup: Microsecond, Units: 512, UnitCost: 510},
	}
	got := makespan(8, 2, 300, shards, nil)
	var slowest, volume Time
	for _, s := range shards {
		if s.Serial() > slowest {
			slowest = s.Serial()
		}
		volume += Time(s.Units) * s.UnitCost
	}
	if got < slowest {
		t.Fatalf("makespan %d beats slowest shard %d", got, slowest)
	}
	if got < volume/2 {
		t.Fatalf("makespan %d beats fabric volume bound %d", got, volume/2)
	}
}

func TestMakespanDeterministic(t *testing.T) {
	shards := mkShards(37, 129, 777, 91)
	shards[5].Units = 0
	shards[11].UnitCost = 0
	shards[20].Setup = 0
	for _, lanes := range []int{1, 2, 4, 8} {
		first := makespan(lanes, 6, 300, shards, nil)
		for i := 0; i < 5; i++ {
			if got := makespan(lanes, 6, 300, shards, nil); got != first {
				t.Fatalf("lanes=%d: run %d gave %d, first run gave %d", lanes, i, got, first)
			}
		}
	}
}

func TestMakespanDegenerateArgs(t *testing.T) {
	shards := mkShards(4, 8, 100, 10)
	want := makespan(1, 1, 0, shards, nil)
	if got := makespan(0, 0, 0, shards, nil); got != want {
		t.Fatalf("clamped args: got %d, want %d", got, want)
	}
	if got := makespan(-3, -1, 0, shards, nil); got != want {
		t.Fatalf("negative args: got %d, want %d", got, want)
	}
	if got := makespan(4, 6, 300, nil, nil); got != 0 {
		t.Fatalf("empty shard list: got %d, want 0", got)
	}
}
