// Package stats provides the small measurement toolkit used by the
// benchmark harness: repeated-timing helpers with warmup, summary
// statistics, and plain-text table rendering for the experiment output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Timing summarizes repeated measurements of one operation.
type Timing struct {
	N              int
	Mean, Min, Max time.Duration
	Median, P95    time.Duration
	StdDev         time.Duration
}

// Measure runs fn n times (after warmup iterations) and summarizes the
// per-iteration durations.
func Measure(n, warmup int, fn func()) Timing {
	for i := 0; i < warmup; i++ {
		fn()
	}
	if n <= 0 {
		n = 1
	}
	samples := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		samples[i] = time.Since(start)
	}
	return Summarize(samples)
}

// MeasureBatch runs fn (which performs `batch` operations internally) n
// times and reports per-operation timings; use it when a single operation
// is too fast to time individually.
func MeasureBatch(n, warmup, batch int, fn func()) Timing {
	for i := 0; i < warmup; i++ {
		fn()
	}
	if n <= 0 {
		n = 1
	}
	if batch <= 0 {
		batch = 1
	}
	samples := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		samples[i] = time.Since(start) / time.Duration(batch)
	}
	return Summarize(samples)
}

// Summarize computes summary statistics over raw samples.
func Summarize(samples []time.Duration) Timing {
	if len(samples) == 0 {
		return Timing{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum, sqsum float64
	for _, s := range sorted {
		f := float64(s)
		sum += f
		sqsum += f * f
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sqsum/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Timing{
		N:      len(sorted),
		Mean:   time.Duration(mean),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: sorted[len(sorted)/2],
		P95:    sorted[(len(sorted)*95)/100],
		StdDev: time.Duration(math.Sqrt(variance)),
	}
}

// Ms renders a duration as fractional milliseconds, the unit of the
// paper's Tables 4 and 5.
func Ms(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
}

// Us renders a duration as microseconds (Table 6's unit).
func Us(d time.Duration) string {
	return fmt.Sprintf("%.1f µs", float64(d)/float64(time.Microsecond))
}

// Ns renders a duration in whole nanoseconds, for a single hash or MAC,
// which Us would round to the same tenth of a microsecond.
func Ns(d time.Duration) string {
	return fmt.Sprintf("%d ns", d.Nanoseconds())
}

// Table renders rows as a fixed-width plain-text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row; values are stringified with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "  %s\n", note)
	}
	return b.String()
}

// Rate formats a bits-per-second value with an adaptive unit.
func Rate(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2f Gbit/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f Mbit/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.2f Kbit/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0f bit/s", bps)
	}
}

// Bytes formats a byte count with an adaptive unit.
func Bytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
