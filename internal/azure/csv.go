package azure

import (
	"cmp"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"cxlfork/internal/des"
)

// Trace files are two-column CSV: arrival time in seconds (fractional),
// function name. This matches how users would feed real production
// traces (e.g. a pre-processed Azure Functions dataset) into the
// autoscaler instead of the built-in MMPP generator.

// maxAt bounds a trace's arrival times: half of des.Time's int64 range
// (about 146 years), so a replay that offsets every arrival by its
// start time cannot overflow the virtual clock.
const maxAt = des.Time(math.MaxInt64 / 2)

// CheckSeconds checks one arrival time, in seconds, against what a
// replay can schedule: it must be finite, non-negative, and at most
// maxAt. Every explicit trace passes through it, from a file (ReadCSV)
// or from a library caller.
func CheckSeconds(sec float64) error {
	switch {
	case math.IsNaN(sec) || math.IsInf(sec, 0):
		return errors.New("not finite")
	case sec < 0:
		return errors.New("negative")
	case sec > maxAt.Seconds():
		return fmt.Errorf("beyond %.0f s", maxAt.Seconds())
	}
	return nil
}

// WriteCSV serializes a trace.
func WriteCSV(w io.Writer, reqs []Request) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seconds", "function"}); err != nil {
		return err
	}
	for _, r := range reqs {
		rec := []string{
			strconv.FormatFloat(r.At.Seconds(), 'f', 6, 64),
			r.Function,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace, tolerating an optional header row and
// unsorted input: arrivals come back sorted by time, rows with equal
// times in file order. Every time must pass CheckSeconds.
func ReadCSV(r io.Reader) ([]Request, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	var out []Request
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line++
		sec, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("azure: line %d: bad time %q", line, rec[0])
		}
		if err := CheckSeconds(sec); err != nil {
			return nil, fmt.Errorf("azure: line %d: time %q: %w", line, rec[0], err)
		}
		if rec[1] == "" {
			return nil, fmt.Errorf("azure: line %d: empty function name", line)
		}
		out = append(out, Request{
			At:       des.Time(sec * float64(des.Second)),
			Function: rec[1],
		})
	}
	slices.SortStableFunc(out, func(a, b Request) int { return cmp.Compare(a.At, b.At) })
	return out, nil
}
