package main

import (
	"strings"
	"testing"
	"time"

	"cxlfork"
)

// TestWriteP99sMixOrder pins the per-function block to the workload
// mix's order, not the map's: a function without completions is
// skipped, and every call prints the same bytes.
func TestWriteP99sMixOrder(t *testing.T) {
	per := map[string]cxlfork.FunctionLatency{
		"Float":   {Count: 9, P99: 12_345_678 * time.Nanosecond},
		"Json":    {Count: 4, P99: 3 * time.Millisecond},
		"Linpack": {Count: 1, P99: 250 * time.Millisecond},
	}
	want := "\nper-function P99:\n" +
		"  Linpack    250ms\n" +
		"  Float      12ms\n" +
		"  Json       3ms\n"
	for i := 0; i < 20; i++ {
		var b strings.Builder
		writeP99s(&b, []string{"Linpack", "Bert", "Float", "Json"}, per)
		if b.String() != want {
			t.Fatalf("run %d printed\n%q\nwant\n%q", i, b.String(), want)
		}
	}
}
