package replica

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/fabric"
	"cxlfork/internal/params"
)

// ringManager builds a bare manager over an n-device flat pool — just
// enough state to interrogate the consistent-hash ring.
func ringManager(t testing.TB, n, rf int) *Manager {
	t.Helper()
	p := params.Default()
	p.CXLBytes = 16 << 30
	p.CXLDevices = n
	p.ReplicationFactor = rf
	return New(cxl.NewDevicePool(p, n), des.NewEngine(), p)
}

// localityManager builds a manager over a placed multi-switch grid.
func localityManager(t testing.TB, spec string, rf int, policy string) *Manager {
	t.Helper()
	p := params.Default()
	p.CXLBytes = 16 << 30
	p.ReplicationFactor = rf
	p.PlacementPolicy = policy
	s, err := fabric.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := s.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	p.CXLDevices = topo.Devices()
	pool := cxl.NewDevicePool(p, topo.Devices())
	if err := pool.Place(topo); err != nil {
		t.Fatal(err)
	}
	return New(pool, des.NewEngine(), p)
}

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

// TestRingChurnBounded is the consistent-hashing contract: growing the
// pool by one device must not reshuffle existing devices — for every
// key, the old preference order must reappear as a subsequence of the
// new one (the new device only inserts itself; nothing else moves).
func TestRingChurnBounded(t *testing.T) {
	for n := 2; n <= 7; n++ {
		small, big := ringManager(t, n, 2), ringManager(t, n+1, 2)
		prop := func(key string) bool {
			old, grown := small.ringOrder(key), big.ringOrder(key)
			j := 0
			for _, d := range grown {
				if d == n {
					continue // the added device may appear anywhere
				}
				if d != old[j] {
					return false
				}
				j++
			}
			return j == len(old)
		}
		if err := quick.Check(prop, quickCfg(int64(n))); err != nil {
			t.Fatalf("n=%d→%d: %v", n, n+1, err)
		}
	}
}

// TestRingRemovalChurnBounded is the shrink direction, checked through
// the walk itself: dropping a device from the preference list must not
// reorder the survivors. (Removing a device's ring points can only
// delete its entries from any key's walk.)
func TestRingRemovalChurnBounded(t *testing.T) {
	m := ringManager(t, 6, 2)
	prop := func(key string, drop uint8) bool {
		gone := int(drop) % 6
		full := m.ringOrder(key)
		var want []int
		for _, d := range full {
			if d != gone {
				want = append(want, d)
			}
		}
		// A pool without the device: survivors keep ring names cxl0..,
		// so rebuild with 5 devices only when dropping the last index —
		// otherwise filter the walk, which is what failover does.
		if gone == 5 {
			got := ringManager(t, 5, 2).ringOrder(key)
			return reflect.DeepEqual(got, want)
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(11)); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceNeverDoublesUp places random images at every factor and
// checks no device ever holds two copies of the same image.
func TestPlaceNeverDoublesUp(t *testing.T) {
	for _, pol := range []string{"hash", "locality"} {
		for rf := 1; rf <= 4; rf++ {
			m := localityManager(t, fabric.GridSpec(4, 2, 6), rf, pol)
			i := 0
			prop := func(key string, salt uint64, affinity uint8) bool {
				i++
				toks := make([]uint64, 64)
				for j := range toks {
					toks[j] = salt ^ uint64(i)<<32 ^ uint64(j)
				}
				k := keyN(key, i)
				img, err := m.Place(k, k+"-id", "CXLfork", toks, 4096, int(affinity)%6)
				if err != nil {
					return false
				}
				seen := map[int]bool{}
				for _, r := range img.m.images[img.st.key].placed {
					if seen[r] {
						return false
					}
					seen[r] = true
				}
				return len(seen) <= rf
			}
			if err := quick.Check(prop, quickCfg(int64(rf))); err != nil {
				t.Fatalf("pol=%s rf=%d: %v", pol, rf, err)
			}
		}
	}
}

// keyN disambiguates quick's occasionally-colliding random strings.
func keyN(key string, i int) string { return key + "#" + string(rune('a'+i%26)) + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestPlaceOrderRelabelInvariant feeds random keys through placeOrder
// on two isomorphic grids whose node names differ and demands identical
// device-index preference orders: the ring hashes pool device names,
// and every locality criterion is structural, so spelling must never
// leak into placement.
func TestPlaceOrderRelabelInvariant(t *testing.T) {
	grid := fabric.GridSpec(4, 2, 6)
	relabeled := renameGrid(grid)
	for _, pol := range []string{"hash", "locality"} {
		a := localityManager(t, grid, 2, pol)
		b := localityManager(t, relabeled, 2, pol)
		prop := func(key string, seed uint8) bool {
			s := []int{int(seed) % 6}
			return reflect.DeepEqual(a.placeOrder(key, s), b.placeOrder(key, s))
		}
		if err := quick.Check(prop, quickCfg(23)); err != nil {
			t.Fatalf("pol=%s: %v", pol, err)
		}
	}
}

// renameGrid rewrites every node id of a GridSpec output, preserving
// declaration order and structure.
func renameGrid(spec string) string {
	id := func(s string) string { return "node_x" + s + "_y" }
	var out []string
	for _, line := range strings.Split(spec, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && (f[0] == "host" || f[0] == "switch" || f[0] == "device"):
			f[1] = id(f[1])
		case len(f) >= 3 && f[0] == "link":
			f[1], f[2] = id(f[1]), id(f[2])
		}
		out = append(out, strings.Join(f, " "))
	}
	return strings.Join(out, "\n")
}

// TestNearestHealthySpreadsTies routes one key from every host and
// checks equal-latency replicas share the load rather than funnelling
// onto the first-placed copy.
func TestNearestHealthySpreadsTies(t *testing.T) {
	// One switch, four devices: every replica is equidistant from every
	// host, so ties are the common case, not the corner.
	m := localityManager(t, fabric.GridSpec(8, 1, 4), 4, "hash")
	toks := make([]uint64, 32)
	for i := range toks {
		toks[i] = uint64(i) << 8
	}
	if _, err := m.Place("spread/key", "spread-id", "CXLfork", toks, 4096, 0); err != nil {
		t.Fatal(err)
	}
	hit := map[int]bool{}
	for h := 0; h < 8; h++ {
		d := m.NearestHealthy("spread/key", h)
		if d < 0 {
			t.Fatalf("host %d found no replica", h)
		}
		hit[d] = true
	}
	if len(hit) < 2 {
		t.Fatalf("all hosts funnelled onto one device: %v", hit)
	}
}
