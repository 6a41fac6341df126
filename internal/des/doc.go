// Package des implements a deterministic discrete-event simulation engine.
//
// Every latency in this repository is accounted in virtual nanoseconds on
// an Engine. Simple sequential experiments advance the clock directly with
// Engine.Advance; concurrent scenarios (the CXLporter autoscaler) schedule
// events on the engine's heap and run them in timestamp order. Ties are
// broken by insertion order, so a simulation with a fixed RNG seed is
// fully reproducible.
//
// Entry points: NewEngine; Engine.At, After and Every schedule
// callbacks, Engine.Schedule schedules an Action (a reusable record
// with a Fire method, so a hot path need not allocate a closure per
// event), Engine.Run drains them, and NewResource models a contended
// unit with FIFO queueing (Resource.Run, Exec, Acquire). The engine's
// determinism is what makes every figure reproducible bit-for-bit
// (DESIGN.md §1).
package des
