package azure

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cxlfork/internal/des"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := Generate(cfg(11))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("len %d vs %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].Function != orig[i].Function {
			t.Fatalf("row %d function %q vs %q", i, got[i].Function, orig[i].Function)
		}
		// Times survive within microsecond precision.
		d := got[i].At - orig[i].At
		if d < 0 {
			d = -d
		}
		if d > des.Microsecond {
			t.Fatalf("row %d time drift %v", i, d)
		}
	}
}

func TestReadCSVHeaderAndSorting(t *testing.T) {
	in := "seconds,function\n2.5,B\n0.5,A\n1.0,C\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0].Function != "A" || got[2].Function != "B" {
		t.Fatalf("not sorted: %+v", got)
	}
	if got[0].At != des.Time(0.5*float64(des.Second)) {
		t.Fatalf("time = %v", got[0].At)
	}
}

// TestReadCSVKeepsFileOrderOnEqualTimes: sorting an unsorted file
// moves each row to its time and keeps rows with equal times in the
// order the file lists them; a file already in time order comes back
// row for row.
func TestReadCSVKeepsFileOrderOnEqualTimes(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"seconds,function\n2.5,B\n0.5,D\n1.0,E\n0.5,A\n2.5,A\n0.5,C\n", "D A C E B A"},
		{"0.5,D\n0.5,A\n1.0,E\n1.0,B\n2.5,C\n", "D A E B C"},
	} {
		got, err := ReadCSV(strings.NewReader(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		var fns []string
		for _, r := range got {
			fns = append(fns, r.Function)
		}
		if s := strings.Join(fns, " "); s != tc.want {
			t.Errorf("ReadCSV(%q) functions %s, want %s", tc.in, s, tc.want)
		}
	}

	// Past a dozen rows an unstable sort reorders ties; row i names
	// itself and arrives at one of three times.
	var in strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&in, "%d,f%02d\n", i*7%3, i)
	}
	got, err := ReadCSV(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSortedFunc(got, func(a, b Request) int {
		return cmp.Or(cmp.Compare(a.At, b.At), strings.Compare(a.Function, b.Function))
	}) {
		t.Fatalf("rows with equal times left file order: %v", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"0.5,A\nbad,B\n", "line 2: bad time"}, // bad time past header position
		{"0.5,A\n-1,B\n", "line 2: time \"-1\": negative"},
		{"0.5,A\n1.0,\n", "line 2: empty function"},
		{"0.5\n", "wrong number of fields"},
		{"0.5,A,extra\n", "wrong number of fields"},
		// Each of these used to wrap to an arrival at math.MinInt64 ns.
		{"NaN,Float\n", "line 1: time \"NaN\": not finite"},
		{"0.5,A\nInf,Float\n", "line 2: time \"Inf\": not finite"},
		{"0.5,A\n-Inf,Float\n", "line 2: time \"-Inf\": not finite"},
		{"0.5,A\n1e300,Float\n", "line 2: time \"1e300\": beyond"},
		{"0.5,A\n9.3e9,Float\n", "line 2: time \"9.3e9\": beyond"},
		{"0.5,A\n4.7e9,Float\n", "line 2: time \"4.7e9\": beyond"},
	}
	for _, tc := range cases {
		_, err := ReadCSV(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("input %q accepted", tc.in)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("input %q: error %q, want it to mention %q", tc.in, err, tc.want)
		}
	}
}

func TestReadCSVEmpty(t *testing.T) {
	got, err := ReadCSV(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: %v %v", got, err)
	}
}

func TestReadCSVAcceptsMaxAt(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("4.6e9,A\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].At <= 0 || got[0].At > maxAt {
		t.Fatalf("time = %d, want in (0, maxAt]", got[0].At)
	}
}

// FuzzReadCSV drives arbitrary text through the trace parser. The
// contract: every input either fails with an error or yields arrivals
// at non-negative times no later than maxAt, in sorted order — the
// preconditions Porter.Run schedules them under.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"",
		"seconds,function\n2.5,B\n0.5,A\n1.0,C\n",
		"NaN,Float\n", "Inf,Float\n", "1e300,Float\n", "9.3e9,Float\n",
		"-0,A\n", "0x1p-2,A\n", "1e-300,A\n", "\"1,5\",A\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		reqs, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, r := range reqs {
			if r.At < 0 || r.At > maxAt {
				t.Fatalf("arrival %d at %d ns outside [0, maxAt]", i, r.At)
			}
			if i > 0 && r.At < reqs[i-1].At {
				t.Fatalf("arrivals unsorted at %d: %d < %d", i, r.At, reqs[i-1].At)
			}
		}
	})
}
