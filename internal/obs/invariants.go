// Telemetry invariant checker: the metric families of PRs 2–6 turned into
// enforced contracts. Netsim scenarios, the fuzzers' companion tests, and
// the CI live-smoke job all run the same checks against either a live
// exporter or a scraped /metrics body.
//
// Invariant catalog (DESIGN.md §5d):
//
//	I1 monotonicity   counters never decrease between snapshots
//	I2 benign-clean   under benign schedules no verification ever fails
//	I3 drop-budget    every dropped packet carries a reason: for each
//	                  family, dropped == Σ drop_<reason>
//	I4 conservation   flow accounting holds: delivered ≤ recv_s2,
//	                  transport datagrams cover their classified drops,
//	                  and total drops stay within the offered×loss bound
package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"alpha/internal/telemetry"
)

// MetricSnapshot is a flat scrape: full sample name (labels included) to
// value. Gauges that happened to be negative at scrape time are omitted —
// no invariant consumes them.
type MetricSnapshot map[string]uint64

// Violation is one failed invariant.
type Violation struct {
	Rule   string // I1..I4 plus a short slug
	Metric string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Rule, v.Metric, v.Detail)
}

// ParsePrometheus parses a Prometheus text exposition into a snapshot plus
// the set of counter-semantics sample names (counters, and histogram
// _bucket/_count/_sum series, which are cumulative too) for monotonicity
// checking.
func ParsePrometheus(r io.Reader) (MetricSnapshot, map[string]bool, error) {
	snap := make(MetricSnapshot)
	counters := make(map[string]bool)
	types := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		// name{labels} value  |  name value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad sample %q: %v", line, err)
		}
		if val < 0 {
			continue
		}
		snap[name] = uint64(val)
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		switch {
		case types[base] == "counter":
			counters[name] = true
		case types[base] == "histogram",
			types[strings.TrimSuffix(base, "_bucket")] == "histogram",
			types[strings.TrimSuffix(base, "_count")] == "histogram",
			types[strings.TrimSuffix(base, "_sum")] == "histogram":
			counters[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return snap, counters, nil
}

// Collect renders the exporter as Prometheus text and parses it back —
// one code path whether the checker runs in-process or against a scrape.
func Collect(exp *telemetry.Exporter) (MetricSnapshot, map[string]bool, error) {
	var b bytes.Buffer
	if err := exp.WritePrometheus(&b); err != nil {
		return nil, nil, err
	}
	return ParsePrometheus(&b)
}

// Invariants configures a check run. The zero value checks only the
// structural rules (I3, I4 flow accounting); set Benign for attack-free
// schedules and Offered/Loss/Hops to bound total drops.
type Invariants struct {
	// Benign asserts the schedule contained no attacker: any
	// verification-failure counter > 0 is a violation (I2).
	Benign bool
	// Offered is the number of protocol packets offered to the path. With
	// Loss and Hops it bounds total counted drops (I4); 0 disables the
	// bound.
	Offered uint64
	// Loss is the per-hop loss probability of the schedule.
	Loss float64
	// Hops is the number of links on the path (sender→receiver).
	Hops int
	// MaxDrops, when nonzero, overrides the derived drop bound.
	MaxDrops uint64
}

// verifyFailSuffixes are the counters that must stay zero under benign
// schedules: a nonzero value means some hop saw cryptographically invalid
// traffic. They are the reasons the telemetry table classes as Hostile.
var verifyFailSuffixes = func() (out []string) {
	for code := uint32(0); code < telemetry.NumReasons; code++ {
		if telemetry.ReasonInfo(code).Hostile {
			out = append(out, "_"+telemetry.DropSample(code))
		}
	}
	return out
}()

// dropBound derives the I4 ceiling on counted drops. Each lost packet can
// cost more than one counted drop downstream (a lost A1 forces an S1
// retransmit whose duplicate is dropped on arrival), so the bound is
// deliberately loose: 4 counted drops per expected loss event, plus slack
// for boundary effects on lossy schedules.
func (inv Invariants) dropBound() (uint64, bool) {
	if inv.MaxDrops != 0 {
		return inv.MaxDrops, true
	}
	if inv.Offered == 0 {
		return 0, false
	}
	if inv.Loss == 0 {
		// Lossless: nothing should ever be dropped.
		return 0, true
	}
	hops := inv.Hops
	if hops < 1 {
		hops = 1
	}
	expected := float64(inv.Offered) * inv.Loss * float64(hops)
	return uint64(expected*4) + 32, true
}

// Check runs the single-snapshot rules (I2, I3, I4) and returns every
// violation found. An empty result means the snapshot honours its
// contracts.
func (inv Invariants) Check(snap MetricSnapshot) []Violation {
	var out []Violation
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)

	// I2: benign schedules never fail verification.
	if inv.Benign {
		for _, n := range names {
			for _, suf := range verifyFailSuffixes {
				if sampleBase(n) != "" && strings.HasSuffix(sampleBase(n), suf) && snap[n] > 0 {
					out = append(out, Violation{
						Rule:   "I2-benign-clean",
						Metric: n,
						Detail: fmt.Sprintf("%d verification failures under a benign schedule", snap[n]),
					})
				}
			}
		}
	}

	// I3: for every family exposing reason-coded drop counters, the
	// aggregate dropped counter equals the sum of its reasons. A family of
	// this process balances by construction (telemetry's dropSet); the
	// check is for scrapes, which may come from any process or version.
	for _, n := range names {
		base, labels := splitSample(n)
		if !strings.HasSuffix(base, "_dropped") {
			continue
		}
		family := strings.TrimSuffix(base, "_dropped")
		var sum uint64
		var reasons int
		for _, m := range names {
			mb, ml := splitSample(m)
			if ml == labels && strings.HasPrefix(mb, family+"_drop_") {
				sum += snap[m]
				reasons++
			}
		}
		if reasons > 0 && sum != snap[n] {
			out = append(out, Violation{
				Rule:   "I3-drop-budget",
				Metric: n,
				Detail: fmt.Sprintf("dropped=%d but Σ drop_<reason>=%d across %d reasons", snap[n], sum, reasons),
			})
		}
	}

	// I4a: an endpoint cannot deliver more than it received.
	for _, n := range names {
		base, labels := splitSample(n)
		if !strings.HasSuffix(base, "_delivered") {
			continue
		}
		family := strings.TrimSuffix(base, "_delivered")
		if recv, ok := snap[joinSample(family+"_recv_s2", labels)]; ok && snap[n] > recv {
			out = append(out, Violation{
				Rule:   "I4-conservation",
				Metric: n,
				Detail: fmt.Sprintf("delivered=%d exceeds recv_s2=%d", snap[n], recv),
			})
		}
	}

	// I4b: transport datagram counts cover the drops they classified.
	for _, n := range names {
		base, labels := splitSample(n)
		if !strings.HasSuffix(base, "_datagrams") {
			continue
		}
		family := strings.TrimSuffix(base, "_datagrams")
		var classified uint64
		for _, suf := range []string{"_inbox_drops", "_unknown_assoc_drops", "_short_datagrams", "_unknown_peer_drops"} {
			classified += snap[joinSample(family+suf, labels)]
		}
		if classified > snap[n] {
			out = append(out, Violation{
				Rule:   "I4-conservation",
				Metric: n,
				Detail: fmt.Sprintf("classified drops %d exceed datagrams %d", classified, snap[n]),
			})
		}
	}

	// I4c: total counted drops stay within the offered×loss bound.
	if bound, ok := inv.dropBound(); ok {
		var total uint64
		for _, n := range names {
			base, _ := splitSample(n)
			if strings.HasSuffix(base, "_dropped") || strings.HasSuffix(base, "_inbox_drops") {
				total += snap[n]
			}
		}
		if total > bound {
			out = append(out, Violation{
				Rule:   "I4-drop-bound",
				Metric: "(total)",
				Detail: fmt.Sprintf("%d counted drops exceed bound %d (offered=%d loss=%.3f hops=%d)", total, bound, inv.Offered, inv.Loss, inv.Hops),
			})
		}
	}
	return out
}

// Monotonic runs I1 between two snapshots of the same process: no
// counter-semantics sample may decrease. counters comes from
// ParsePrometheus/Collect on the *current* snapshot; samples absent from
// either snapshot are skipped (labeled families come and go with churn).
func Monotonic(prev, cur MetricSnapshot, counters map[string]bool) []Violation {
	var out []Violation
	names := make([]string, 0, len(prev))
	for n := range prev {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !counters[n] {
			continue
		}
		c, ok := cur[n]
		if !ok {
			continue
		}
		if c < prev[n] {
			out = append(out, Violation{
				Rule:   "I1-monotonic",
				Metric: n,
				Detail: fmt.Sprintf("counter went backwards: %d -> %d", prev[n], c),
			})
		}
	}
	return out
}

// splitSample separates a sample name into its unlabeled base and label
// block ("" when unlabeled).
func splitSample(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

func sampleBase(name string) string {
	base, _ := splitSample(name)
	return base
}

func joinSample(base, labels string) string { return base + labels }
