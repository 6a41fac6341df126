package serve

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"cxlfork"
)

// FuzzSpec decodes arbitrary bytes the way POST /v1/sessions does and
// runs admission on the result, with and without the server's cap on
// virtual duration. Validate must never panic, and every spec it admits
// must satisfy each admission bound, restated here apart from the code
// under test. The seeds are the specs docs/API.md and
// examples/served/spec.json document.
func FuzzSpec(f *testing.F) {
	for _, seed := range documentedSpecs(f) {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, capped bool) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		maxVirtual := time.Duration(0)
		if capped {
			maxVirtual = Config{}.withDefaults().MaxVirtual
		}
		if spec.Validate(maxVirtual) != nil {
			return
		}
		if err := admissionBound(spec, maxVirtual); err != nil {
			t.Fatalf("Validate admitted %q: %v", data, err)
		}
	})
}

// documentedSpecs returns every JSON object docs/API.md shows, fenced
// or inline, and the served example spec.
func documentedSpecs(f *testing.F) [][]byte {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		f.Fatal(err)
	}
	example, err := os.ReadFile("../../examples/served/spec.json")
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{example}
	fenced := regexp.MustCompile("(?s)```json\n(.*?)```")
	for _, m := range fenced.FindAllSubmatch(doc, -1) {
		seeds = append(seeds, m[1])
	}
	inline := regexp.MustCompile("`(\\{[^`]*\\})`")
	for _, m := range inline.FindAllSubmatch(doc, -1) {
		seeds = append(seeds, m[1])
	}
	if len(seeds) < 3 {
		f.Fatalf("found %d documented specs, want the example and docs/API.md's", len(seeds))
	}
	return seeds
}

// admissionBound restates each bound Validate enforces and returns the
// first one s breaks. Zero fields count at the defaults a run applies:
// 2 nodes, 128 GiB DRAM per node, 16 GiB CXL, a 10 s duration, a
// 100 ms sampling period, a 1 s reclaim period and a 500 ms repair
// period.
func admissionBound(s Spec, maxVirtual time.Duration) error {
	c, w := s.Config, s.Workload
	if w.Design != "" && !slices.Contains(cxlfork.WorkloadDesigns, w.Design) {
		return fmt.Errorf("design %q", w.Design)
	}
	if c.Nodes < 0 || c.Nodes > MaxNodes {
		return fmt.Errorf("nodes %d", c.Nodes)
	}
	if c.NodeDRAMBytes < 0 || c.CXLCapacityBytes < 0 {
		return fmt.Errorf("negative memory %d, %d", c.NodeDRAMBytes, c.CXLCapacityBytes)
	}
	nodes, dram, cxl := int64(c.Nodes), c.NodeDRAMBytes, c.CXLCapacityBytes
	if nodes == 0 {
		nodes = 2
	}
	if dram == 0 {
		dram = 128 << 30
	}
	if cxl == 0 {
		cxl = 16 << 30
	}
	if dram > MaxPlatformBytes || cxl > MaxPlatformBytes || nodes*dram+cxl > MaxPlatformBytes {
		return fmt.Errorf("platform %d × %d + %d bytes", nodes, dram, cxl)
	}
	if c.CheckpointLanes > MaxLanes || c.RestoreLanes > MaxLanes {
		return fmt.Errorf("lanes %d, %d", c.CheckpointLanes, c.RestoreLanes)
	}
	if c.Replication.Devices > MaxDevices {
		return fmt.Errorf("devices %d", c.Replication.Devices)
	}
	if c.Telemetry.SeriesCap > MaxSeriesCap {
		return fmt.Errorf("series cap %d", c.Telemetry.SeriesCap)
	}
	if !slices.Contains([]string{"", "costbenefit", "lru", "largest"}, c.Capacity.EvictPolicy) {
		return fmt.Errorf("evict policy %q", c.Capacity.EvictPolicy)
	}
	if !slices.Contains([]string{"", "hash", "locality"}, c.Fabric.Placement) {
		return fmt.Errorf("placement %q", c.Fabric.Placement)
	}
	if w.RPS < 0 || w.RPS > MaxRPS {
		return fmt.Errorf("rps %g", w.RPS)
	}
	dur := time.Duration(w.Duration)
	if dur < 0 || (maxVirtual > 0 && dur > maxVirtual) {
		return fmt.Errorf("duration %v", dur)
	}
	if dur == 0 {
		dur = 10 * time.Second
	}
	for _, loop := range []struct {
		every, def time.Duration
	}{
		{time.Duration(c.Telemetry.SampleEvery), 100 * time.Millisecond},
		{time.Duration(c.Capacity.ReclaimPeriod), time.Second},
		{time.Duration(c.Replication.RepairPeriod), 500 * time.Millisecond},
	} {
		every := loop.every
		if every <= 0 {
			every = loop.def
		}
		if ticks := dur / every; ticks > MaxTicks {
			return fmt.Errorf("%d ticks of %v", ticks, every)
		}
	}
	mix := w.Functions
	if len(mix) == 0 {
		mix = cxlfork.FunctionNames()
	}
	for i, fn := range mix {
		if !slices.Contains(cxlfork.FunctionNames(), fn) || slices.Contains(mix[:i], fn) {
			return fmt.Errorf("function %q", fn)
		}
	}
	live := false
	for _, fn := range mix {
		if wt, ok := w.Weights[fn]; !ok || wt > 0 {
			live = true
		}
	}
	for fn, wt := range w.Weights {
		if wt < 0 {
			return fmt.Errorf("weight %g for %q", wt, fn)
		}
	}
	if !live {
		return fmt.Errorf("weights zero the mix")
	}
	if s.Session.Pace < 0 || s.Session.Timeout < 0 {
		return fmt.Errorf("pace %g, timeout %v", s.Session.Pace, time.Duration(s.Session.Timeout))
	}
	return nil
}
