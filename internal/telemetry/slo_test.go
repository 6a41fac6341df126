package telemetry

import (
	"testing"

	"cxlfork/internal/des"
)

// synthetic builds a registry with one gauge fed from vals at a 100 ms
// tick and returns the registry plus the tick driver.
func synthetic(vals []float64) (*Registry, func(e *Engine)) {
	r := New(100*des.Millisecond, 1024)
	i := 0
	r.Gauge("sig", "synthetic signal", func(des.Time) float64 { return vals[i] })
	drive := func(e *Engine) {
		for i = 0; i < len(vals); i++ {
			now := des.Time(i) * 100 * des.Millisecond
			r.Sample(now)
			e.Evaluate(now)
		}
	}
	return r, drive
}

func TestNilEngineIsNoOp(t *testing.T) {
	var e *Engine
	e.Add(Objective{Short: 1, Long: 2}, nil)
	e.Evaluate(0)
	if e.Firing("x") || e.Alerts() != nil || e.Fired() != 0 {
		t.Fatal("nil engine must absorb every call")
	}
	if NewEngine(nil) != nil {
		t.Fatal("NewEngine over a disabled registry must be nil")
	}
}

func TestBurnRateMath(t *testing.T) {
	// 10 samples in the window, 4 violating (> 0.9), budget 0.2:
	// burn = (4/10)/0.2 = 2.0 exactly.
	vals := []float64{0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 0.5}
	reg, drive := synthetic(vals)
	e := NewEngine(reg)
	e.Add(Objective{
		Name: "o", Series: "sig", Target: 0.9, Budget: 0.2,
		Short: 450 * des.Millisecond, Long: 900 * des.Millisecond,
	}, nil)
	drive(e)
	now := des.Time(len(vals)-1) * 100 * des.Millisecond
	o := e.objs[0].Objective
	if got := e.burn(o, 900*des.Millisecond, now); got != 2.0 {
		t.Fatalf("long burn = %g, want 2.0", got)
	}
	// Short window [450ms, 900ms] holds samples 5..9: two violations
	// of five → (2/5)/0.2 = 2.0.
	if got := e.burn(o, 450*des.Millisecond, now); got != 2.0 {
		t.Fatalf("short burn = %g, want 2.0", got)
	}
	o.Series = "missing"
	if got := e.burn(o, des.Second, now); got != 0 {
		t.Fatal("an objective over an unregistered series must burn 0")
	}
}

func TestBelowObjective(t *testing.T) {
	vals := []float64{5, 1, 1, 1, 1, 1}
	reg, drive := synthetic(vals)
	e := NewEngine(reg)
	e.Add(Objective{
		Name: "floor", Series: "sig", Target: 3, Below: true, Budget: 0.5,
		Short: 200 * des.Millisecond, Long: 400 * des.Millisecond,
	}, nil)
	drive(e)
	if !e.Firing("floor") {
		t.Fatal("below-target objective must fire when samples drop under Target")
	}
}

func TestFireResolveAndActions(t *testing.T) {
	// Clean for 10 ticks, saturated for 10, clean for 20: exactly one
	// fire and one resolve, actions run only while firing.
	vals := make([]float64, 40)
	for i := 10; i < 20; i++ {
		vals[i] = 1.0
	}
	reg, drive := synthetic(vals)
	e := NewEngine(reg)
	actions := 0
	e.Add(Objective{
		Name: "occ", Series: "sig", Target: 0.9, Budget: 0.1,
		Short: 300 * des.Millisecond, Long: des.Second, Factor: 2,
	}, func() { actions++ })
	drive(e)
	alerts := e.Alerts()
	if len(alerts) != 2 || !alerts[0].Firing || alerts[1].Firing {
		t.Fatalf("alerts = %+v, want one fire then one resolve", alerts)
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", e.Fired())
	}
	if alerts[0].Short < 2 || alerts[0].Long < 2 {
		t.Fatalf("fire transition burns = %+v, want both >= factor", alerts[0])
	}
	if actions == 0 {
		t.Fatal("action must run while the alert fires")
	}
	// One action per evaluation from the fire tick up to (not
	// including) the resolve tick.
	firingTicks := int(alerts[1].At-alerts[0].At) / int(100*des.Millisecond)
	if actions != firingTicks {
		t.Fatalf("actions = %d, want one per firing evaluation (%d)", actions, firingTicks)
	}
	if e.Firing("occ") {
		t.Fatal("alert must be resolved at end of run")
	}
}

// Hysteresis: a signal oscillating just around the target keeps the
// long window burning after the short window clears, so the alert
// fires once and holds — no flapping across window boundaries.
func TestAlertHysteresisNoFlapping(t *testing.T) {
	var vals []float64
	for i := 0; i < 60; i++ {
		// Saturated bursts alternating with brief dips: 6 bad, 2 good.
		if i%8 < 6 {
			vals = append(vals, 1.0)
		} else {
			vals = append(vals, 0.5)
		}
	}
	reg, drive := synthetic(vals)
	e := NewEngine(reg)
	e.Add(Objective{
		Name: "occ", Series: "sig", Target: 0.9, Budget: 0.5,
		Short: 300 * des.Millisecond, Long: 2 * des.Second, Factor: 1.4,
	}, nil)
	drive(e)
	transitions := e.Alerts()
	fires := 0
	for _, a := range transitions {
		if a.Firing {
			fires++
		}
	}
	if fires != 1 {
		t.Fatalf("oscillating signal fired %d times (%+v), want exactly 1 — hysteresis must prevent flapping", fires, transitions)
	}
	if !e.Firing("occ") {
		t.Fatal("alert must still be firing while the long window stays hot")
	}
}

func TestObjectiveDefaultsAndValidation(t *testing.T) {
	reg := New(0, 8)
	e := NewEngine(reg)
	defer func() {
		if recover() == nil {
			t.Fatal("Short > Long must panic")
		}
	}()
	e.Add(Objective{Name: "bad", Series: "sig", Short: 2 * des.Second, Long: des.Second}, nil)
}
