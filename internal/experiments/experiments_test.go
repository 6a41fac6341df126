package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
	"cxlfork/internal/rfork"
)

// subset returns a fast two-function suite for driver tests.
func subset() []faas.Spec {
	var out []faas.Spec
	for _, name := range []string{"Float", "Json"} {
		s, _ := faas.ByName(name)
		out = append(out, s)
	}
	return out
}

func TestMeasureAllAndRender(t *testing.T) {
	p := ExpParams()
	ms, err := MeasureAll(p, subset(), AllScenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	r := Fig7Result{Measurements: ms}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 7a", "Figure 7b", "Float", "Json", "CXLfork", "Averages"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	s := r.Summary()
	if s.CRIUOverCXLfork <= 1 {
		t.Fatalf("CRIU not slower than CXLfork: %v", s.CRIUOverCXLfork)
	}
	if s.MemSavedOverCRIU <= 0.5 {
		t.Fatalf("memory saving vs CRIU too small: %v", s.MemSavedOverCRIU)
	}
}

func TestFig8SummaryAndRender(t *testing.T) {
	p := ExpParams()
	ms, err := MeasureAll(p, subset(), tieringScenarios)
	if err != nil {
		t.Fatal(err)
	}
	r := Fig8Result{Measurements: ms}
	s := r.Summary()
	if s.MoAMemGrowth <= 0 {
		t.Fatalf("MoA did not grow memory: %v", s.MoAMemGrowth)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 8c") {
		t.Fatal("render incomplete")
	}
}

func TestFig1SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("classification sweep is slow")
	}
	p := ExpParams()
	r, err := Fig1(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Breakdowns) != 10 {
		t.Fatalf("breakdowns = %d", len(r.Breakdowns))
	}
	var rw float64
	for _, b := range r.Breakdowns {
		if math.Abs(b.InitFrac+b.ROFrac+b.RWFrac-1) > 1e-9 {
			t.Fatalf("%s fractions don't sum to 1", b.Name)
		}
		rw += b.RWFrac
	}
	if avg := rw / 10; math.Abs(avg-0.048) > 0.02 {
		t.Fatalf("mean RW fraction %.3f, want ≈0.048", avg)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Average") {
		t.Fatal("render incomplete")
	}
}

func TestFig6Run(t *testing.T) {
	p := ExpParams()
	r, err := Fig6(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Paper: 250-500 ms state init; our Bert runs higher because its
		// 630 MB population is charged mechanistically.
		if row.StateInit < 250*des.Millisecond || row.StateInit > 900*des.Millisecond {
			t.Errorf("%s state init %v outside plausible band", row.Function, row.StateInit)
		}
		if row.Container != params.ContainerCreate {
			t.Errorf("%s container cost wrong", row.Function)
		}
	}
}

func TestBuildProfiles(t *testing.T) {
	p := ExpParams()
	ms, err := MeasureAll(p, subset(), AllScenarios)
	if err != nil {
		t.Fatal(err)
	}
	profiles := BuildProfiles(ms)
	// 5 scenario keys per function.
	if len(profiles) != 10 {
		t.Fatalf("profiles = %d, want 10", len(profiles))
	}
	key := porter.ProfileKey{Function: "Float", Mechanism: "CXLfork", Policy: rfork.MigrateOnWrite}
	pr, ok := profiles[key]
	if !ok {
		t.Fatal("missing CXLfork/MoW profile")
	}
	if pr.Restore <= 0 || pr.WarmExec <= 0 || pr.LocalPages <= 0 || pr.FootprintPages <= pr.LocalPages {
		t.Fatalf("degenerate profile %+v", pr)
	}
	mit := profiles[porter.ProfileKey{Function: "Float", Mechanism: "Mitosis-CXL", Policy: rfork.MigrateOnWrite}]
	if mit.RemoteCopy <= 0 {
		t.Fatal("Mitosis profile has no remote-copy component")
	}
	cxl := profiles[key]
	if cxl.RemoteCopy != 0 {
		t.Fatal("CXLfork profile has a remote-copy component")
	}
}

func TestScaleDedupFlat(t *testing.T) {
	p := ExpParams()
	r, err := Scale(p, "Float", 3, []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	a, b := r.Points[0], r.Points[1]
	// Device occupancy flat; local memory grows linearly; CRIU ≫ CXLfork.
	if a.DeviceMB != b.DeviceMB {
		t.Fatalf("device grew with clones: %d → %d MB", a.DeviceMB, b.DeviceMB)
	}
	if b.CXLforkLocalMB <= a.CXLforkLocalMB {
		t.Fatal("local memory did not grow with clones")
	}
	if b.CRIULocalMB <= 2*b.CXLforkLocalMB {
		t.Fatalf("dedup advantage too small: criu=%d cxlfork=%d", b.CRIULocalMB, b.CXLforkLocalMB)
	}
	// Restore latency roughly flat in the clone count.
	ratio := float64(b.RestoreMean) / float64(a.RestoreMean)
	if ratio > 1.2 || ratio < 0.8 {
		t.Fatalf("restore latency not flat: %v vs %v", a.RestoreMean, b.RestoreMean)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "deduplication") {
		t.Fatal("render incomplete")
	}
}

func TestFig9BandsSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep is slow")
	}
	p := ExpParams()
	r, err := Fig9(p)
	if err != nil {
		t.Fatal(err)
	}
	// BFS warm improves monotonically as latency drops; Float is flat.
	var bfs, float []float64
	for _, lat := range Fig9Latencies {
		for _, pt := range r.Points {
			if pt.CXLLatency != lat {
				continue
			}
			switch pt.Function {
			case "BFS":
				bfs = append(bfs, pt.WarmRel)
			case "Float":
				float = append(float, pt.WarmRel)
			}
		}
	}
	for i := 1; i < len(bfs); i++ {
		if bfs[i] > bfs[i-1]+1e-9 {
			t.Fatalf("BFS warm not improving: %v", bfs)
		}
	}
	for _, v := range float {
		if math.Abs(v-1.0) > 0.05 {
			t.Fatalf("Float warm not flat: %v", float)
		}
	}
	if bfs[0] < 1.3 {
		t.Fatalf("BFS not penalized at 400ns: %v", bfs[0])
	}
}

func TestFaultsCrossCheck(t *testing.T) {
	p := ExpParams()
	fc, err := Faults(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fc.CoWCXL-2.5) > 0.01 {
		t.Fatalf("CoW-CXL = %v µs, want 2.5", fc.CoWCXL)
	}
	if fc.AnonFault >= 1.0 {
		t.Fatalf("anon fault %v µs, want < 1", fc.AnonFault)
	}
	// The measured per-fault MoA average sits near the modelled cost.
	if fc.MoA < 1.5 || fc.MoA > 3.5 {
		t.Fatalf("MoA per-fault average %v µs implausible", fc.MoA)
	}
}

func TestFig10SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replay is slow")
	}
	p := ExpParams()
	cfg := DefaultFig10Config()
	cfg.Duration = 5 * des.Second
	cfg.RPS = 40
	cfg.Functions = []string{"Float", "Json"}
	cfg.MemoryFractions = []float64{1.0, 0.25}
	r, err := Fig10(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 8 { // 4 designs × 2 fractions
		t.Fatalf("runs = %d", len(r.Runs))
	}
	for _, run := range r.Runs {
		if run.Results.Completed == 0 {
			t.Fatalf("%s@%.2f completed nothing", run.Design, run.MemFrac)
		}
		if run.P50 > run.P99 {
			t.Fatalf("%s@%.2f P50 > P99", run.Design, run.MemFrac)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	for _, want := range []string{"Figure 10a", "Figure 10b", "Figure 10c"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestWorkflowDriver(t *testing.T) {
	p := ExpParams()
	r, err := Workflow(p, 3, []int64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ByRef.Latency >= row.ByValue.Latency {
			t.Fatalf("%dMB: by-reference not faster", row.PayloadMB)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "workflow") {
		t.Fatal("render incomplete")
	}
}
