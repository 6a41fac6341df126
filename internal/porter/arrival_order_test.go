package porter_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
)

// twoFunctionRun replays trace through a fresh porter serving Tiny and
// a copy of it named Tiny2, so the order of same-instant arrivals of
// the two functions shows in the results.
func twoFunctionRun(t *testing.T, trace []azure.Request) uint64 {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = 1 << 30
	p.CXLBytes = 1 << 30
	c := cluster.MustNew(p, 2)
	prof := profiles("CXLfork")
	for k, v := range prof {
		k.Function = "Tiny2"
		prof[k] = v
	}
	tiny2 := tinySpec()
	tiny2.Name = "Tiny2"
	po := porter.New(c, porter.Config{
		Mechanism:       core.New(c.Dev),
		Profiles:        prof,
		NodeBudgetBytes: 1 << 30,
		Seed:            1,
	})
	if err := po.Setup([]faas.Spec{tinySpec(), tiny2}); err != nil {
		t.Fatal(err)
	}
	return po.Run(trace).Fingerprint()
}

// TestRunUnsortedTraceDispatchesInTraceOrder replays a shuffled trace
// whose arrivals share a few instants. Run must dispatch same-instant
// arrivals in trace order, exactly like the stably sorted trace, and
// must leave the caller's slice as it was.
func TestRunUnsortedTraceDispatchesInTraceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trace := make([]azure.Request, 400)
	for i := range trace {
		fn := "Tiny"
		if rng.Intn(2) == 0 {
			fn = "Tiny2"
		}
		trace[i] = azure.Request{At: des.Time(rng.Intn(20)) * 50 * des.Millisecond, Function: fn}
	}
	shuffled := slices.Clone(trace)
	sorted := slices.Clone(trace)
	slices.SortStableFunc(sorted, func(a, b azure.Request) int { return cmp.Compare(a.At, b.At) })

	if got, want := twoFunctionRun(t, shuffled), twoFunctionRun(t, sorted); got != want {
		t.Fatalf("unsorted trace fingerprint %#x, stably sorted %#x", got, want)
	}
	if !slices.Equal(shuffled, trace) {
		t.Fatal("Run reordered the caller's trace")
	}
}
