package stats

import (
	"strings"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	samples := []time.Duration{5, 1, 3, 2, 4}
	got := Summarize(samples)
	if got.N != 5 || got.Min != 1 || got.Max != 5 || got.Mean != 3 || got.Median != 3 {
		t.Fatalf("summary wrong: %+v", got)
	}
	if got.StdDev == 0 {
		t.Fatalf("stddev of spread samples should be nonzero")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := Summarize(nil); got.N != 0 || got.Mean != 0 {
		t.Fatalf("empty summary: %+v", got)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	samples := []time.Duration{3, 1, 2}
	Summarize(samples)
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Fatalf("input mutated: %v", samples)
	}
}

func TestMeasureCounts(t *testing.T) {
	calls := 0
	got := Measure(10, 3, func() { calls++ })
	if calls != 13 {
		t.Fatalf("fn called %d times, want 13 (10 + 3 warmup)", calls)
	}
	if got.N != 10 {
		t.Fatalf("N = %d", got.N)
	}
}

func TestMeasureBatchDivides(t *testing.T) {
	got := MeasureBatch(5, 0, 1000, func() { time.Sleep(time.Millisecond) })
	if got.Mean > 100*time.Microsecond || got.Mean == 0 {
		t.Fatalf("per-op mean %v, expected ~1µs", got.Mean)
	}
}

func TestFormatting(t *testing.T) {
	if got := Ms(1500 * time.Microsecond); got != "1.500 ms" {
		t.Fatalf("Ms: %q", got)
	}
	if got := Us(2500 * time.Nanosecond); got != "2.5 µs" {
		t.Fatalf("Us: %q", got)
	}
	if got := Ns(1540 * time.Nanosecond); got != "1540 ns" {
		t.Fatalf("Ns: %q", got)
	}
	if got := Rate(250_000); got != "250.00 Kbit/s" {
		t.Fatalf("Rate: %q", got)
	}
	if got := Rate(20_000_000); got != "20.00 Mbit/s" {
		t.Fatalf("Rate: %q", got)
	}
	if got := Rate(12); got != "12 bit/s" {
		t.Fatalf("Rate: %q", got)
	}
	if got := Bytes(2048); got != "2.00 KiB" {
		t.Fatalf("Bytes: %q", got)
	}
	if got := Bytes(100); got != "100 B" {
		t.Fatalf("Bytes: %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Demo", Headers: []string{"col", "value"}}
	tb.Add("alpha", 42)
	tb.Add("longer-name", "x")
	tb.Note("footnote %d", 1)
	out := tb.String()
	for _, want := range []string{"Demo", "col", "alpha", "42", "longer-name", "footnote 1", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	// Columns align: header and rows share the first column width.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", out)
	}
}
