// HTTP exposure: /metrics (Prometheus text) and /trace (the tracer ring as
// JSON, decoded with kind and reason names). Handlers read only atomic
// snapshots; they never touch the hot path.

package telemetry

import (
	"encoding/json"
	"net/http"
)

// Handler returns a mux serving /metrics and /trace for this exporter.
func (e *Exporter) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", e.serveMetrics)
	mux.HandleFunc("/trace", e.serveTrace)
	return mux
}

func (e *Exporter) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = e.WritePrometheus(w)
}

// traceRecord is the JSON shape of one trace event.
type traceRecord struct {
	Time   int64  `json:"time_ns"`
	Kind   string `json:"kind"`
	Assoc  uint64 `json:"assoc"`
	Seq    uint32 `json:"seq,omitempty"`
	Detail uint32 `json:"detail,omitempty"`
	Reason string `json:"reason,omitempty"`
}

func (e *Exporter) serveTrace(w http.ResponseWriter, r *http.Request) {
	e.mu.Lock()
	t := e.tracer
	e.mu.Unlock()

	events := t.Snapshot() // nil-safe: no tracer means no events
	records := make([]traceRecord, len(events))
	for i, ev := range events {
		rec := traceRecord{
			Time:   ev.Time,
			Kind:   ev.Kind.String(),
			Assoc:  ev.Assoc,
			Seq:    ev.Seq,
			Detail: ev.Detail,
		}
		switch ev.Kind {
		case TraceDrop, TraceRelayDrop, TraceInboxDrop:
			rec.Reason = ReasonString(ev.Detail)
		}
		records[i] = rec
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(records)
}
