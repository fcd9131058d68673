// Export model: metric sets implement Walker; an Exporter owns a list of
// prefixed groups and renders them as Prometheus text or a human-readable
// text dump. All rendering happens off the hot path; only snapshots of
// atomics are read.

package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Visitor receives one metric per call during a Walk.
type Visitor interface {
	Counter(name string, value uint64)
	Gauge(name string, value int64)
	Histogram(name string, snap HistogramSnapshot)
}

// Walker is anything that can report its metrics to a Visitor.
type Walker interface {
	Walk(Visitor)
}

// WalkerFunc adapts a function to the Walker interface, for dynamic groups
// (e.g. a server summing per-session metrics at scrape time).
type WalkerFunc func(Visitor)

// Walk calls f.
func (f WalkerFunc) Walk(v Visitor) { f(v) }

// Exporter aggregates named metric groups and renders them. Groups are
// walked in registration order; a group's prefix namespaces every metric it
// reports (prefix_name). Groups may carry a label set, and may be produced
// dynamically at scrape time — the mechanism behind per-association metric
// families whose membership changes as sessions come and go.
type Exporter struct {
	mu      sync.Mutex
	groups  []exportGroup
	dynamic []GroupFunc
	tracer  *Tracer
}

type exportGroup struct {
	prefix string
	labels string // rendered inside {} in Prometheus output; "" for none
	w      Walker
}

// GroupFunc produces metric groups at scrape time. It is called with the
// exporter's lock NOT held and must call emit once per group it wants
// rendered in this scrape. Labels use Prometheus pair syntax without
// braces, e.g. `assoc="4f2a90cc01d7b3e6"`.
type GroupFunc func(emit func(prefix, labels string, w Walker))

// NewExporter creates an empty exporter.
func NewExporter() *Exporter { return &Exporter{} }

// Register adds a metric group under a prefix (e.g. "alpha_endpoint").
// Registering the same prefix twice keeps both groups; callers own prefix
// uniqueness.
func (e *Exporter) Register(prefix string, w Walker) {
	e.RegisterLabeled(prefix, "", w)
}

// RegisterLabeled adds a metric group whose samples carry a fixed label set
// (e.g. prefix "alpha_session", labels `assoc="4f2a..."`). In Prometheus
// output the labels render inside braces; in text/Snapshot output they are
// folded into the sample key as name{labels}, so two groups sharing a
// prefix but not labels stay distinct.
func (e *Exporter) RegisterLabeled(prefix, labels string, w Walker) {
	e.mu.Lock()
	e.groups = append(e.groups, exportGroup{prefix: prefix, labels: labels, w: w})
	e.mu.Unlock()
}

// RegisterDynamic adds a scrape-time group producer. Each render calls f to
// enumerate the groups that exist right now — the natural fit for
// per-session metric families under churn, where registering each session
// individually would leak groups as sessions retire.
func (e *Exporter) RegisterDynamic(f GroupFunc) {
	e.mu.Lock()
	e.dynamic = append(e.dynamic, f)
	e.mu.Unlock()
}

// SetTracer attaches the tracer served by the /trace endpoint.
func (e *Exporter) SetTracer(t *Tracer) {
	e.mu.Lock()
	e.tracer = t
	e.mu.Unlock()
}

func (e *Exporter) snapshotGroups() []exportGroup {
	e.mu.Lock()
	groups := append([]exportGroup(nil), e.groups...)
	dynamic := append([]GroupFunc(nil), e.dynamic...)
	e.mu.Unlock()
	// Dynamic producers run unlocked: they may take their own locks (e.g.
	// a server's session table) and must not deadlock against Register.
	for _, f := range dynamic {
		f(func(prefix, labels string, w Walker) {
			groups = append(groups, exportGroup{prefix: prefix, labels: labels, w: w})
		})
	}
	return groups
}

// Snapshot returns every registered metric keyed by its full name:
// counters and gauges as uint64/int64, histograms as HistogramSnapshot.
// Labeled groups key as prefix_name{labels}. This is the programmatic API
// the CLIs and examples print at exit.
func (e *Exporter) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, g := range e.snapshotGroups() {
		g.w.Walk(&mapVisitor{prefix: g.prefix, labels: g.labels, out: out})
	}
	return out
}

// mapVisitor flattens a walk into a name->value map.
type mapVisitor struct {
	prefix string
	labels string
	out    map[string]any
}

func (m *mapVisitor) key(name string) string {
	if m.labels == "" {
		return m.prefix + "_" + name
	}
	return m.prefix + "_" + name + "{" + m.labels + "}"
}

func (m *mapVisitor) Counter(name string, v uint64)              { m.out[m.key(name)] = v }
func (m *mapVisitor) Gauge(name string, v int64)                 { m.out[m.key(name)] = v }
func (m *mapVisitor) Histogram(name string, h HistogramSnapshot) { m.out[m.key(name)] = h }

// WriteText renders a sorted name value dump, one metric per line —
// the exit-summary format. Histograms print count/sum only.
func (e *Exporter) WriteText(w io.Writer) error {
	snap := e.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var err error
		switch v := snap[name].(type) {
		case HistogramSnapshot:
			_, err = fmt.Fprintf(w, "%-44s count=%d sum=%d\n", name, v.Count, v.Sum)
		default:
			_, err = fmt.Fprintf(w, "%-44s %v\n", name, v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the Prometheus text exposition format: counters
// and gauges as single samples, histograms as cumulative _bucket/_sum/_count
// families.
func (e *Exporter) WritePrometheus(w io.Writer) error {
	// typed is shared across groups so a metric family split over many
	// labeled groups (one per association) declares its TYPE exactly once.
	typed := make(map[string]bool)
	for _, g := range e.snapshotGroups() {
		pv := &promVisitor{w: w, prefix: g.prefix, labels: g.labels, typed: typed}
		g.w.Walk(pv)
		if pv.err != nil {
			return pv.err
		}
	}
	return nil
}

type promVisitor struct {
	w      io.Writer
	prefix string
	labels string
	typed  map[string]bool
	err    error
}

func (p *promVisitor) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// typeLine declares a family's TYPE on first sight.
func (p *promVisitor) typeLine(full, kind string) {
	if !p.typed[full] {
		p.typed[full] = true
		p.printf("# TYPE %s %s\n", full, kind)
	}
}

// sample renders one labeled or unlabeled sample line. extra is an optional
// pre-formatted label pair (e.g. `le="128"`) merged with the group labels.
func (p *promVisitor) sample(full, extra string, value any) {
	labels := p.labels
	switch {
	case labels == "":
		labels = extra
	case extra != "":
		labels = labels + "," + extra
	}
	if labels == "" {
		p.printf("%s %v\n", full, value)
	} else {
		p.printf("%s{%s} %v\n", full, labels, value)
	}
}

func (p *promVisitor) Counter(name string, v uint64) {
	full := p.prefix + "_" + name
	p.typeLine(full, "counter")
	p.sample(full, "", v)
}

func (p *promVisitor) Gauge(name string, v int64) {
	full := p.prefix + "_" + name
	p.typeLine(full, "gauge")
	p.sample(full, "", v)
}

func (p *promVisitor) Histogram(name string, h HistogramSnapshot) {
	full := p.prefix + "_" + name
	p.typeLine(full, "histogram")
	cum := uint64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		p.sample(full+"_bucket", fmt.Sprintf("le=%q", fmt.Sprint(bound)), cum)
	}
	p.sample(full+"_bucket", `le="+Inf"`, h.Count)
	p.sample(full+"_sum", "", h.Sum)
	p.sample(full+"_count", "", h.Count)
}
