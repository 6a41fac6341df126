package experiments

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
)

// resetCalibrationMemo empties the process-wide memo, so the next
// calibration of any input measures. Its counters keep counting.
func resetCalibrationMemo() {
	c := calibration
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	c.lru.Init()
}

// memoSpec is a small function whose calibration takes milliseconds.
func memoSpec() faas.Spec {
	return faas.Spec{
		Name: "MemoTiny", FootprintBytes: 8 << 20, LibBytes: 3 << 20,
		InitFrac: 0.6, ROFrac: 0.3, RWFrac: 0.1,
		InitComputeNs: 50 * des.Millisecond, WarmComputeNs: 10 * des.Millisecond,
		ROSweeps: 1, RepeatsPerPage: 1, InitTouchFrac: 0.05, ScratchFrac: 0.05,
		FDCount: 4, LibVMAs: 6,
	}
}

// memoParams returns ExpParams with a CXL latency no other test uses,
// so the keys a test calibrates start out missing from the memo.
func memoParams(ns int64) params.Params {
	p := ExpParams()
	p.CXLLatency = des.Time(ns)
	return p
}

// designScenarioSets is every design's scenario list.
func designScenarioSets() map[string][]Scenario {
	sets := make(map[string][]Scenario)
	for _, d := range Fig10Designs {
		sets[string(d)] = d.Scenarios()
	}
	return sets
}

// TestMeasureFunctionIsPure is the memo's premise: measuring the same
// inputs again, after unrelated simulations have advanced memsim's
// process-wide pool and token counters and in the reverse order,
// reproduces every measurement exactly. Float is cache-resident; BFS's
// read-only working set exceeds the LLC, so its results depend on LLC
// and TLB eviction order. The test calls measureFunction, which never
// consults the memo.
func TestMeasureFunctionIsPure(t *testing.T) {
	if testing.Short() {
		t.Skip("mechanistic measurement is slow")
	}
	p := ExpParams()
	type input struct {
		name  string
		spec  faas.Spec
		scens []Scenario
	}
	var inputs []input
	for _, fn := range []string{"Float", "BFS"} {
		spec, _ := faas.ByName(fn)
		for _, d := range Fig10Designs {
			inputs = append(inputs, input{fn + "/" + string(d), spec, d.Scenarios()})
		}
	}
	first := make([]*FnMeasurement, len(inputs))
	for i, in := range inputs {
		m, err := measureFunction(p, in.spec, in.scens)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		first[i] = m
	}

	// Unrelated simulations: another function's calibration builds a
	// cluster (new pool ids) and stores pages (new tokens).
	tok := memsim.NewToken()
	other, _ := faas.ByName("Json")
	if _, err := measureFunction(memoParams(333), other, AllScenarios); err != nil {
		t.Fatal(err)
	}
	if memsim.NewToken() <= tok+1 {
		t.Fatal("the unrelated calibration stored no page")
	}

	for i := len(inputs) - 1; i >= 0; i-- {
		in := inputs[i]
		m, err := measureFunction(p, in.spec, in.scens)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if !reflect.DeepEqual(m, first[i]) {
			t.Errorf("%s: remeasured %+v, first %+v", in.name, m, first[i])
		}
	}
}

// observed returns p with the tracer, telemetry and x-ray on and four
// simulation workers.
func observed(p params.Params) params.Params {
	p.TraceEnabled, p.TelemetryEnabled, p.XRayEnabled, p.SimWorkers = true, true, true, 4
	return p
}

// TestMeasureFunctionIgnoresObservers is why MeasureFunction may clear
// the observer flags and SimWorkers before it keys and measures: Float
// and BFS, measured memo-free under every scenario with all three
// observers and four workers on, deep-equal their measurements with
// all of them off.
func TestMeasureFunctionIgnoresObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("mechanistic measurement is slow")
	}
	p := ExpParams()
	for _, fn := range []string{"Float", "BFS"} {
		spec, _ := faas.ByName(fn)
		plain, err := measureFunction(p, spec, AllScenarios)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		obs, err := measureFunction(observed(p), spec, AllScenarios)
		if err != nil {
			t.Fatalf("%s observed: %v", fn, err)
		}
		if !reflect.DeepEqual(obs, plain) {
			t.Errorf("%s: observed %+v, plain %+v", fn, obs, plain)
		}
	}
}

// TestCalibrationMemoHitsAcrossObservers: a call that differs from an
// earlier one only in its observer flags and worker count is a memo
// hit, and returns the earlier call's measurement.
func TestCalibrationMemoHitsAcrossObservers(t *testing.T) {
	p, spec := memoParams(383), memoSpec()
	first, err := MeasureFunction(p, spec, AllScenarios)
	if err != nil {
		t.Fatal(err)
	}
	before := CalibrationMemoStats()
	hit, err := MeasureFunction(observed(p), spec, AllScenarios)
	if err != nil {
		t.Fatal(err)
	}
	if after := CalibrationMemoStats(); after.Hits != before.Hits+1 {
		t.Fatalf("observed call was not a memo hit (hits %d → %d)", before.Hits, after.Hits)
	}
	if !reflect.DeepEqual(hit, first) {
		t.Fatalf("observed hit %+v, plain %+v", hit, first)
	}
}

// TestMemoHitsEqualRecompute checks that a memo hit returns exactly
// what measuring again returns, for every design's scenario set and
// for AllScenarios.
func TestMemoHitsEqualRecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("mechanistic measurement is slow")
	}
	p := memoParams(347)
	spec, _ := faas.ByName("Float")
	sets := designScenarioSets()
	sets["AllScenarios"] = AllScenarios
	for name, scens := range sets {
		if _, err := MeasureFunction(p, spec, scens); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := CalibrationMemoStats()
		hit, err := MeasureFunction(p, spec, scens)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := CalibrationMemoStats(); after.Hits != before.Hits+1 {
			t.Fatalf("%s: second call was not a memo hit (hits %d → %d)", name, before.Hits, after.Hits)
		}
		fresh, err := measureFunction(p, spec, scens)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(hit, fresh) {
			t.Errorf("%s: memo hit %+v, remeasured %+v", name, hit, fresh)
		}
	}
}

// TestCalibrationMemoReturnsCopies mutates every measurement
// MeasureFunction returns; later hits must not see it.
func TestCalibrationMemoReturnsCopies(t *testing.T) {
	p, spec := memoParams(359), memoSpec()
	first, err := MeasureFunction(p, spec, AllScenarios)
	if err != nil {
		t.Fatal(err)
	}
	want := first.clone()
	mutate := func(m *FnMeasurement) {
		m.ColdInit++
		m.Spec.Name = "mutated"
		cold := m.ByScen[ScenCold]
		cold.E2E++
		cold.Faults.Counts[0]++
		m.ByScen[ScenCold] = cold
		delete(m.ByScen, ScenCRIU)
		m.ByScen["extra"] = Measure{}
	}
	mutate(first)
	for i := 0; i < 2; i++ {
		hit, err := MeasureFunction(p, spec, AllScenarios)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hit, want) {
			t.Fatalf("hit %d: %+v, want %+v", i, hit, want)
		}
		mutate(hit)
	}
}

// TestCalibrationMemoLRU drives the container alone with synthetic
// measurements: no simulation runs.
func TestCalibrationMemoLRU(t *testing.T) {
	c := newCalibrationMemo(3)
	key := func(i int) memoKey { return memoKey{p: memoParams(int64(i)), scens: 1} }
	val := func(i int) *FnMeasurement {
		return &FnMeasurement{ColdInit: des.Time(i), ByScen: map[Scenario]Measure{ScenCold: {E2E: des.Time(i)}}}
	}
	for i := 1; i <= 3; i++ {
		c.put(key(i), val(i))
	}
	if _, ok := c.get(key(1)); !ok { // 1 becomes the most recent
		t.Fatal("key 1 missing")
	}
	c.put(key(4), val(4)) // evicts 2, the least recently used
	for i, want := range map[int]bool{1: true, 2: false, 3: true, 4: true} {
		m, ok := c.get(key(i))
		if ok != want {
			t.Fatalf("key %d present = %v, want %v", i, ok, want)
		}
		if ok && !reflect.DeepEqual(m, val(i)) {
			t.Fatalf("key %d: %+v, want %+v", i, m, val(i))
		}
	}
	c.put(key(3), val(3)) // already present: no eviction
	if n := c.lru.Len(); n != 3 || len(c.entries) != 3 {
		t.Fatalf("%d entries in the list, %d in the map, want 3", n, len(c.entries))
	}
	if c.hits != 4 || c.misses != 1 {
		t.Fatalf("hits %d misses %d, want 4 and 1", c.hits, c.misses)
	}

	// A NaN field makes a key that no lookup can find; put skips it
	// rather than strand it in the map.
	nan := key(5)
	nan.p.CXLHighWatermark = math.NaN()
	c.put(nan, val(5))
	if _, ok := c.get(nan); ok || len(c.entries) != 3 {
		t.Fatalf("NaN key stored: %d entries", len(c.entries))
	}

	// The scenario set has a bit for every scenario and ignores order
	// and duplicates.
	if len(AllScenarios) > 8 {
		t.Fatalf("%d scenarios do not fit memoKey's uint8 set", len(AllScenarios))
	}
	if a, b := scenarioSet([]Scenario{ScenCXLfork, ScenCold}), scenarioSet([]Scenario{ScenCold, ScenCXLfork, ScenCold}); a != b {
		t.Fatalf("scenario sets %#x and %#x differ", a, b)
	}
	if got := scenarioSet(AllScenarios); got != 1<<len(AllScenarios)-1 {
		t.Fatalf("AllScenarios set %#x", got)
	}
}

// TestCalibrationMemoConcurrent calibrates overlapping keys from many
// goroutines at once; CI runs it under -race -count=10. Every result
// must equal the memo-free measurement of its key.
func TestCalibrationMemoConcurrent(t *testing.T) {
	resetCalibrationMemo() // so every run, each of -count=10 too, starts with misses
	spec := memoSpec()
	const keys, goroutines, calls = 4, 16, 8
	ps := make([]params.Params, keys)
	want := make([]*FnMeasurement, keys)
	for i := range ps {
		ps[i] = memoParams(int64(371 + i))
		m, err := measureFunction(ps[i], spec, DesignCXLfork.Scenarios())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	before := CalibrationMemoStats()
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				k := (g + c) % keys
				m, err := MeasureFunction(ps[k], spec, DesignCXLfork.Scenarios())
				if err == nil && !reflect.DeepEqual(m, want[k]) {
					err = fmt.Errorf("key %d: %+v, want %+v", k, m, want[k])
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	after := CalibrationMemoStats()
	if got := (after.Hits - before.Hits) + (after.Misses - before.Misses); got != goroutines*calls {
		t.Errorf("memo counted %d lookups, want %d", got, goroutines*calls)
	}
	if after.Entries > calibrationMemoEntries {
		t.Errorf("%d entries, above the bound %d", after.Entries, calibrationMemoEntries)
	}
}
