package experiments

import (
	"testing"

	"cxlfork/internal/des"
)

// xrayTestConfig trims the attributed cell to the golden fabric test's
// load so the replays stay fast while the trunk still queues.
func xrayTestConfig() FabricExpConfig {
	cfg := DefaultXRayExpConfig()
	cfg.RPS = 120
	cfg.Duration = 4 * des.Second
	return cfg
}

// TestXRayExactDecomposition pins the attribution equation: for every
// porter-fed class the component shares sum to the end-to-end latency
// exactly (zero residual), and every exemplar balances individually.
func TestXRayExactDecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	r, err := XRaySweep(ExpParams(), xrayTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, xrun := range r.Runs {
		rep := xrun.XRay
		if rep == nil || rep.Requests == 0 {
			t.Fatalf("policy %s: empty report", xrun.Policy)
		}
		if rep.HottestLink() == "" {
			t.Fatalf("policy %s: no link heatmap", xrun.Policy)
		}
		for _, cb := range rep.Classes {
			if cb.ResidualNS != 0 {
				t.Fatalf("policy %s class %s: residual %d — decomposition not exact",
					xrun.Policy, cb.Class, cb.ResidualNS)
			}
			var comps int64
			for _, c := range cb.Components {
				comps += c.TotalNS
			}
			if comps != cb.TotalNS {
				t.Fatalf("policy %s class %s: components sum %d != total %d",
					xrun.Policy, cb.Class, comps, cb.TotalNS)
			}
			for _, ex := range cb.Exemplars {
				var sum int64
				for _, c := range ex.Components {
					sum += c.NS
				}
				if sum+ex.ResidualNS != ex.LatencyNS {
					t.Fatalf("policy %s class %s exemplar #%d: %d + residual %d != latency %d",
						xrun.Policy, cb.Class, ex.Seq, sum, ex.ResidualNS, ex.LatencyNS)
				}
			}
		}
	}
}
