// Package azure generates serverless request arrivals standing in for
// the Azure production traces the paper replays (Shahrad et al., §6.1).
// The traces' relevant property for CXLporter is burstiness: long idle
// or low-rate periods punctuated by invocation spikes that force the
// autoscaler to spawn instances. We reproduce that with a per-function
// Markov-modulated Poisson process (a two-state on/off MMPP): each
// function alternates between a base-rate state and a burst state with
// a configurable rate multiplier, and the aggregate load is scaled to a
// target requests-per-second (the paper drives 150 RPS).
//
// Substitution note (DESIGN.md §1): the real trace data set is not
// redistributable; the MMPP keeps the knob the paper's analysis depends
// on (bursts that create cold-start storms) explicit and controllable.
//
// The entry point is Generate, which expands a TraceConfig —
// DefaultLoads supplies the suite's per-function loads — into a
// time-sorted arrival trace; Summarize reports the realized rate and
// burstiness. ReadCSV and WriteCSV load and store a trace as CSV.
//
// Order: a trace is sorted by arrival time, and arrivals at the same
// virtual nanosecond keep load order (the order of TraceConfig.Loads;
// for ReadCSV, file order). Cost: Generate is linear in the arrivals;
// placing each one scans the loads' run heads, and a trace has a
// handful of loads. It allocates each load's run once, presized from
// the load's expected count, and the output once, sized to the exact
// total. The seeded draw sequence is fixed, so a config's trace is the
// same on every machine.
package azure
