package telemetry

import "cxlfork/internal/des"

// SLO rule engine: declarative objectives evaluated over sliding
// virtual-time windows with multi-window burn-rate alerting.
//
// An objective declares a target for one series and an error budget:
// the fraction of samples allowed to violate the target. The burn rate
// over a window is (violating fraction) / budget — burn 1.0 spends the
// budget exactly, burn 2.0 spends it twice as fast. Following the
// multi-window pattern from SRE practice, an alert fires only when
// BOTH a short and a long window burn at or above the factor: the long
// window proves the problem is sustained, the short window proves it
// is still happening. The alert resolves with hysteresis — both
// windows must fall to half the firing threshold — so a series
// oscillating around the target cannot flap the alert across window
// boundaries.

// Objective declares one service-level objective over a registry
// series.
type Objective struct {
	// Name identifies the objective in alerts.
	Name string
	// Series is the registry key of the watched series (name plus
	// rendered labels, e.g. "cxl_utilization").
	Series string
	// Target is the boundary value. A sample violates the objective
	// when it is above Target (or below, when Below is set).
	Target float64
	// Below inverts the comparison: the objective is "stay >= Target".
	Below bool
	// Budget is the allowed violating fraction of samples, in (0, 1].
	// Zero defaults to 0.1 (10% of samples may violate).
	Budget float64
	// Short and Long are the two sliding windows, Short < Long.
	Short, Long des.Time
	// Factor is the burn rate at which the alert fires on both
	// windows. Zero defaults to 2 (burning the budget twice as fast
	// as allowed).
	Factor float64
	// ResolveRatio scales Factor to the resolve threshold: the alert
	// resolves when both burns fall to Factor*ResolveRatio or below.
	// Zero defaults to 0.5.
	ResolveRatio float64
}

// Alert records one firing or resolve transition.
type Alert struct {
	Objective string
	At        des.Time
	// Firing is true on the fire transition, false on resolve.
	Firing bool
	// Short and Long are the burn rates at the transition instant.
	Short, Long float64
}

type objState struct {
	Objective
	action func()
	firing bool
}

// Engine evaluates objectives against a registry after each sample
// tick. A nil *Engine (from a disabled registry) is a safe no-op.
type Engine struct {
	reg    *Registry
	objs   []*objState
	alerts []Alert
	fired  int64
}

// NewEngine builds an SLO engine over reg; a disabled registry yields
// a nil engine.
func NewEngine(reg *Registry) *Engine {
	if !reg.Enabled() {
		return nil
	}
	return &Engine{reg: reg}
}

// Add registers an objective. The optional action runs on every
// evaluation while the alert is firing — the hook the capacity manager
// uses to drive early reclaim.
func (e *Engine) Add(o Objective, action func()) {
	if e == nil {
		return
	}
	if o.Budget <= 0 || o.Budget > 1 {
		o.Budget = 0.1
	}
	if o.Factor <= 0 {
		o.Factor = 2
	}
	if o.ResolveRatio <= 0 {
		o.ResolveRatio = 0.5
	}
	if o.Short <= 0 || o.Long <= 0 || o.Short > o.Long {
		panic("telemetry: objective windows must satisfy 0 < Short <= Long")
	}
	e.objs = append(e.objs, &objState{Objective: o, action: action})
}

// burn returns the burn rate of o over [now-window, now]: the fraction
// of window samples violating the target, divided by the budget. An
// empty window burns nothing.
func (e *Engine) burn(o Objective, window, now des.Time) float64 {
	s := e.reg.Lookup(o.Series)
	if s == nil {
		return 0
	}
	from := des.Time(0)
	if now > window {
		from = now - window
	}
	total, bad := 0, 0
	s.Window(from, now, func(sm Sample) {
		total++
		if (o.Below && sm.V < o.Target) || (!o.Below && sm.V > o.Target) {
			bad++
		}
	})
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / o.Budget
}

// Evaluate advances every objective to virtual time now: computes both
// window burns, applies the fire/resolve transitions, and runs the
// actions of firing objectives.
func (e *Engine) Evaluate(now des.Time) {
	if e == nil {
		return
	}
	for _, o := range e.objs {
		short := e.burn(o.Objective, o.Short, now)
		long := e.burn(o.Objective, o.Long, now)
		resolve := o.Factor * o.ResolveRatio
		switch {
		case !o.firing && short >= o.Factor && long >= o.Factor:
			o.firing = true
			e.fired++
			e.alerts = append(e.alerts, Alert{Objective: o.Name, At: now, Firing: true, Short: short, Long: long})
		case o.firing && short <= resolve && long <= resolve:
			o.firing = false
			e.alerts = append(e.alerts, Alert{Objective: o.Name, At: now, Firing: false, Short: short, Long: long})
		}
		if o.firing && o.action != nil {
			o.action()
		}
	}
}

// Firing reports whether the named objective is currently firing.
func (e *Engine) Firing(name string) bool {
	if e == nil {
		return false
	}
	for _, o := range e.objs {
		if o.Name == name {
			return o.firing
		}
	}
	return false
}

// Alerts returns every fire/resolve transition in evaluation order.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	return append([]Alert(nil), e.alerts...)
}

// Fired returns how many fire transitions have occurred.
func (e *Engine) Fired() int64 {
	if e == nil {
		return 0
	}
	return e.fired
}
