package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"cxlfork"
	"cxlfork/internal/metrics"
	"cxlfork/internal/serve"
)

func TestSpecGenDeterministicAndValid(t *testing.T) {
	a, b, other := newSpecGen(7), newSpecGen(7), newSpecGen(8)
	differs := false
	const n = 4 * cycleLen
	perBlock := map[string]int{} // designs and functions seen in this block
	knobs := map[string]bool{}   // knobs varied in this cycle
	rates, durs := map[float64]bool{}, map[serve.Duration]bool{}
	pairs := map[string]bool{} // design+group pairs seen in this cycle
	seeds := map[int64]bool{}
	for i := 0; i < n; i++ {
		sa, sb, so := a.next(), b.next(), other.next()
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("spec %d differs between two generators of one seed:\n%+v\n%+v", i, sa, sb)
		}
		if !reflect.DeepEqual(sa, so) {
			differs = true
		}
		if err := sa.Validate(serverConfig.MaxVirtual); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		w := sa.Workload
		if seeds[w.Seed] {
			t.Errorf("spec %d: workload seed %d repeats", i, w.Seed)
		}
		seeds[w.Seed] = true
		if k := len(w.Functions); k < 2 || k > 3 {
			t.Errorf("spec %d: %d functions", i, k)
		}
		if w.RPS < 50 || w.RPS > 200 {
			t.Errorf("spec %d: rps %g", i, w.RPS)
		}
		if d := time.Duration(w.Duration); d < 5*time.Second || d >= 10*time.Second {
			t.Errorf("spec %d: duration %v", i, d)
		}
		rates[w.RPS], durs[w.Duration] = true, true
		c := sa.Config
		if c.NodeDRAMBytes != 6*giB || c.CXLCapacityBytes != 8*giB || c.Nodes != 2 {
			t.Errorf("spec %d: platform %+v", i, c)
		}
		varied := 0
		for knob, on := range map[string]bool{
			"latency": c.CXLLatency != 0, "cores": c.Cores != 0,
			"replication": c.Replication.Devices != 0, "budget": w.NodeBudgetBytes != 0,
		} {
			if on {
				varied++
				knobs[knob] = true
			}
		}
		if varied > 1 {
			t.Errorf("spec %d varies %d knobs", i, varied)
		}
		perBlock[w.Design]++
		for _, fn := range w.Functions {
			perBlock[fn]++
		}
		pair := w.Design + "+" + w.Functions[0]
		if pairs[pair] {
			t.Fatalf("spec %d: %s twice in one cycle", i, pair)
		}
		pairs[pair] = true
		if (i+1)%blockSize == 0 {
			for _, name := range append(cxlfork.FunctionNames(), cxlfork.WorkloadDesigns...) {
				if perBlock[name] != 1 {
					t.Fatalf("block ending at spec %d: %s %d times, want once", i, name, perBlock[name])
				}
			}
			perBlock = map[string]int{}
		}
		if (i+1)%cycleLen == 0 {
			if len(pairs) != cycleLen || len(knobs) != 4 || len(rates) != cycleLen || len(durs) != cycleLen {
				t.Fatalf("cycle ending at spec %d: %d pairs, %d knobs, %d rates, %d durations; want %d, 4, %d, %d",
					i, len(pairs), len(knobs), len(rates), len(durs), cycleLen, cycleLen, cycleLen)
			}
			pairs, knobs = map[string]bool{}, map[string]bool{}
			rates, durs = map[float64]bool{}, map[serve.Duration]bool{}
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 generated the same specs")
	}
}

func TestPercentilesFollowSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n, p int
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {21, 52, true}, {30, 66, true},
		{40, 75, true}, {100, 90, true}, {1000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.p, c.ok)
		}
		if !ok {
			continue
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		v := quantile(xs, float64(p)/100)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d p%d = %g has %d samples beyond it", c.n, p, v, beyond)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %g", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of 1,3,5 = %g", m)
	}
}

func TestCycleMeanWeighsEverySpecOnce(t *testing.T) {
	// The cheap spec ran three times and the dear one once; each counts
	// once, by its median. A spec with no session is left out.
	groups := [][]float64{{1, 3, 2}, {10}, nil}
	if m := cycleMean(groups); m != 6 {
		t.Errorf("cycleMean = %g, want 6", m)
	}
	if m := cycleMean([][]float64{nil, nil}); !math.IsNaN(m) {
		t.Errorf("cycleMean of no sessions = %g, want NaN", m)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "job", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{Name: "d", ID: 5, Parent: 2, Start: 12, End: 18},  // grandchild
		{Name: "e", ID: 6, Start: 200, End: 260},           // another root
	}
	want := map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", "job", 0)
	r.end(id)
	if id != 0 || r.add("y", "job", 0, time.Now(), time.Now()) != 0 {
		t.Error("nil recorder returned a span id")
	}
}

func TestEmbeddedPinsAreConsistent(t *testing.T) {
	var p pins
	if err := json.Unmarshal(defaultPins, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Served.Fingerprints) != pinnedSessions {
		t.Fatalf("%d served pins, want %d", len(p.Served.Fingerprints), pinnedSessions)
	}
	if d := digest(p.Served.Fingerprints); d != p.Served.Digest {
		t.Errorf("digest of the pinned fingerprints is %s, pinned %s", d, p.Served.Digest)
	}
	if probs := checkServedPins(p.Served.Fingerprints[:3], p); len(probs) != 0 {
		t.Errorf("a matching prefix reported %v", probs)
	}
	bad := append([]string(nil), p.Served.Fingerprints...)
	bad[5] = "0000000000000000"
	if probs := checkServedPins(bad, p); len(probs) != 1 || !strings.Contains(probs[0], "session 6") {
		t.Errorf("a drifted session reported %v, want session 6", probs)
	}

	// A replay that reproduces the Azure pin passes; any drift fails.
	rec := metrics.NewLatencyRecorder()
	rec.Record(0)
	r := &jobResult{fingerprint: p.Azure.Fingerprint, events: p.Azure.Events, arrivals: p.Azure.Arrivals}
	r.res.Completed = p.Azure.Completed
	r.res.Overall = rec
	p.Azure.P99NS = int64(rec.P99())
	if probs := checkAzurePins(r, p, false); len(probs) != 0 {
		t.Errorf("matching replay reported %v", probs)
	}
	r.events++
	if probs := checkAzurePins(r, p, true); len(probs) != 0 {
		t.Errorf("observed replay with its own sampling events reported %v", probs)
	}
	r.fingerprint = "501cafc1a4e62d9e"
	if probs := checkAzurePins(r, p, false); len(probs) != 2 {
		t.Errorf("drifted replay reported %v, want fingerprint and events", probs)
	}
	if probs := checkAzurePins(r, p, true); len(probs) != 1 {
		t.Errorf("drifted observed replay reported %v, want fingerprint", probs)
	}
}

// TestDoctoredPinExitsNonzero runs one served session against pins
// whose first session fingerprint was changed.
func TestDoctoredPinExitsNonzero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a served session")
	}
	var p pins
	if err := json.Unmarshal(defaultPins, &p); err != nil {
		t.Fatal(err)
	}
	p.Served.Fingerprints[0] = "ffffffffffffffff"
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	saved := defaultPins
	defaultPins = blob
	defer func() { defaultPins = saved }()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "served-mix", "--seed", strconv.FormatInt(p.Served.Seed, 10), "--seconds", "1"}, &out, &errOut)
	if code == 0 {
		t.Fatalf("doctored pin exited 0:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result %+v, want incorrect with no failed session", res)
	}
	if !strings.Contains(errOut.String(), "session 1 fingerprint") {
		t.Errorf("stderr does not name the drifted session:\n%s", errOut.String())
	}
}
