package experiments

import (
	"runtime"
	"testing"

	"cxlfork/internal/des"
)

// The observers allocate once per replay, not once per request: with
// the tracer, telemetry and x-ray on, an AzureBench leg's replay
// allocates at most observerAllocBudget more times than the same
// replay with all three off, at 10k and at 40k requests alike. Only
// Leg.Run is counted; calibration and the cluster build are not.
func TestObserversAllocatePerReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	const (
		rps                 = 2500
		observerAllocBudget = 500
	)
	cfg := DefaultAzureBenchConfig()
	for _, requests := range []int{10_000, 40_000} {
		wl := Workload{
			RPS:       rps,
			Duration:  des.Time(requests/rps) * des.Second,
			Functions: []string{"Float", "Json"},
			Seed:      cfg.Seed,
		}
		p := ExpParams()
		specs, profiles, err := calibrated(p, wl, DesignCXLforkMoW.Scenarios())
		if err != nil {
			t.Fatal(err)
		}
		mallocs := func(observed bool) uint64 {
			q := p
			q.TraceEnabled, q.TelemetryEnabled, q.XRayEnabled = observed, observed, observed
			leg, err := NewLeg(q, cfg.Nodes, DesignCXLforkMoW, wl, 12<<30, specs, profiles)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			leg.Run()
			runtime.ReadMemStats(&m1)
			return m1.Mallocs - m0.Mallocs
		}
		plain, observed := mallocs(false), mallocs(true)
		if observed > plain+observerAllocBudget {
			t.Errorf("%d requests: observed replay %d allocations, plain %d: the observers add %d, budget %d",
				requests, observed, plain, observed-plain, observerAllocBudget)
		} else {
			t.Logf("%d requests: the observers add %d allocations (plain %d)", requests, int64(observed)-int64(plain), plain)
		}
	}
}
