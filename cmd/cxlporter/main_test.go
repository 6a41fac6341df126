package main

import (
	"strings"
	"testing"
	"time"
)

// TestWriteP99sMixOrder pins the per-function block to the workload
// mix's order, not the map's: a function without completions is
// skipped, and every call prints the same bytes.
func TestWriteP99sMixOrder(t *testing.T) {
	p99 := map[string]time.Duration{
		"Float":   12_345_678 * time.Nanosecond,
		"Json":    3 * time.Millisecond,
		"Linpack": 250 * time.Millisecond,
	}
	want := "\nper-function P99:\n" +
		"  Linpack    250ms\n" +
		"  Float      12ms\n" +
		"  Json       3ms\n"
	for i := 0; i < 20; i++ {
		var b strings.Builder
		writeP99s(&b, []string{"Linpack", "Bert", "Float", "Json"}, p99)
		if b.String() != want {
			t.Fatalf("run %d printed\n%q\nwant\n%q", i, b.String(), want)
		}
	}
}
