package des

import "testing"

// collect returns an observer that appends (shard, lane, start, end)
// tuples, plus the backing slice pointer.
func collect() (ShardObserver, *[][4]Time) {
	var got [][4]Time
	return func(shard, lane int, start, end Time) {
		got = append(got, [4]Time{Time(shard), Time(lane), start, end})
	}, &got
}

func TestObserverDoesNotChangeMakespan(t *testing.T) {
	shards := mkShards(12, 512, 2*Microsecond, 510)
	shards[3].Units = 0
	for _, lanes := range []int{1, 2, 4, 8} {
		want := makespan(lanes, 6, 300, shards, nil)
		obs, _ := collect()
		if got := makespan(lanes, 6, 300, shards, obs); got != want {
			t.Fatalf("lanes=%d: observed makespan %d != unobserved %d", lanes, got, want)
		}
		obs, _ = collect()
		if got := Pipeline(lanes, 6, 300, shards, obs); got != want {
			t.Fatalf("lanes=%d: observed pipeline time %d != unobserved %d", lanes, got, want)
		}
	}
}

func TestObserverSeesEveryShardOnce(t *testing.T) {
	shards := mkShards(9, 64, 1000, 50)
	for _, lanes := range []int{1, 3, 16} {
		obs, got := collect()
		makespan(lanes, 4, 300, shards, obs)
		if len(*got) != len(shards) {
			t.Fatalf("lanes=%d: observed %d shards, want %d", lanes, len(*got), len(shards))
		}
		seen := make(map[Time]bool)
		for _, s := range *got {
			if seen[s[0]] {
				t.Fatalf("lanes=%d: shard %d observed twice", lanes, s[0])
			}
			seen[s[0]] = true
		}
	}
}

func TestObservedIntervalsAreWellFormed(t *testing.T) {
	shards := mkShards(12, 512, 2*Microsecond, 510)
	for _, lanes := range []int{2, 4} {
		obs, got := collect()
		span := makespan(lanes, 6, 300, shards, obs)

		// Every interval sits inside [0, makespan]; the slowest finisher
		// defines the makespan exactly.
		var latest Time
		byLane := make(map[Time][][2]Time)
		for _, s := range *got {
			lane, start, end := s[1], s[2], s[3]
			if start < 0 || end < start || end > span {
				t.Fatalf("lanes=%d: bad interval [%d,%d) vs makespan %d", lanes, start, end, span)
			}
			if int(lane) < 0 || int(lane) >= lanes {
				t.Fatalf("lanes=%d: shard ran on lane %d", lanes, lane)
			}
			if end > latest {
				latest = end
			}
			byLane[lane] = append(byLane[lane], [2]Time{start, end})
		}
		if latest != span {
			t.Fatalf("lanes=%d: last shard ends at %d, makespan %d", lanes, latest, span)
		}

		// Intervals on one lane never overlap: the lane is held from
		// grant to last-unit drain. Observation order is completion
		// order, so sort per lane by start first.
		for lane, ivs := range byLane {
			for i := range ivs {
				for j := i + 1; j < len(ivs); j++ {
					a, b := ivs[i], ivs[j]
					if a[0] < b[1] && b[0] < a[1] {
						t.Fatalf("lanes=%d lane %d: intervals [%d,%d) and [%d,%d) overlap",
							lanes, lane, a[0], a[1], b[0], b[1])
					}
				}
			}
		}
	}
}

func TestSerialObserverLaysShardsBackToBack(t *testing.T) {
	shards := []Shard{
		{Setup: 10, Units: 3, UnitCost: 5},
		{Setup: 7},
		{Units: 100, UnitCost: 1},
	}
	obs, got := collect()
	total := Pipeline(1, 6, 300, shards, obs)
	if want := makespan(1, 6, 300, shards, nil); total != want {
		t.Fatalf("serial observed total %d != one-lane makespan %d", total, want)
	}
	var pos Time
	for i, s := range *got {
		if s[0] != Time(i) || s[1] != 0 {
			t.Fatalf("serial path: span %d = shard %d on lane %d, want shard %d on lane 0", i, s[0], s[1], i)
		}
		if s[2] != pos || s[3] != pos+shards[i].Serial() {
			t.Fatalf("shard %d interval [%d,%d), want [%d,%d)", i, s[2], s[3], pos, pos+shards[i].Serial())
		}
		pos = s[3]
	}
}
