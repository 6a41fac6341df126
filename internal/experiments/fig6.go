package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// Fig6Row is one function's cold-start anatomy (Fig. 6).
type Fig6Row struct {
	Function  string
	StateInit des.Time
	Container des.Time
}

// Fig6Result is the cold-start anatomy across the suite.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 measures state-initialization time per function; container
// creation is function-independent (§5) and comes from the platform
// model.
func Fig6(p params.Params) (*Fig6Result, error) {
	res := &Fig6Result{}
	for _, spec := range faas.Suite() {
		c, err := NewEnv(p, spec)
		if err != nil {
			return nil, err
		}
		node := c.Node(0)
		in, err := faas.NewInstance(node, spec)
		if err != nil {
			return nil, err
		}
		t0 := c.Eng.Now()
		if err := in.ColdInit(); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig6Row{
			Function:  spec.Name,
			StateInit: c.Eng.Now() - t0,
			Container: params.ContainerCreate,
		})
		in.Exit()
	}
	return res, nil
}

// Render prints the anatomy table.
func (r *Fig6Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 6 — cold-start latency anatomy (paper: state init 250-500ms, container ≈130ms)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Function\tState init\tContainer creation\tTotal")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", row.Function,
			compact(row.StateInit), compact(row.Container), compact(row.StateInit+row.Container))
	}
	tw.Flush()
}

// Table1Render prints the workload suite (Table 1).
func Table1Render(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — serverless functions used in the evaluation")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Function\tDescription\tFootprint(MB)")
	for _, s := range faas.Suite() {
		fmt.Fprintf(tw, "%s\t%s\t%d\n", s.Name, s.Description, s.FootprintBytes>>20)
	}
	tw.Flush()
}
