package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// populated builds an exporter with one endpoint group holding known values.
func populated() (*Exporter, *EndpointMetrics) {
	m := NewEndpointMetrics()
	m.SentS1.Add(3)
	m.Delivered.Add(2)
	m.BytesSent.Add(1234)
	m.PayloadSize.Observe(100) // bucket le=128
	m.PayloadSize.Observe(100)
	m.PayloadSize.Observe(300)     // bucket le=512
	m.PayloadSize.Observe(1 << 20) // overflow (> 64 KiB)
	e := NewExporter()
	e.Register("alpha_endpoint", m)
	return e, m
}

func TestSnapshotMap(t *testing.T) {
	e, _ := populated()
	snap := e.Snapshot()
	if got := snap["alpha_endpoint_sent_s1"]; got != uint64(3) {
		t.Fatalf("sent_s1 = %v, want 3", got)
	}
	if got := snap["alpha_endpoint_bytes_sent"]; got != uint64(1234) {
		t.Fatalf("bytes_sent = %v, want 1234", got)
	}
	h, ok := snap["alpha_endpoint_payload_size_bytes"].(HistogramSnapshot)
	if !ok {
		t.Fatalf("payload_size_bytes is %T, want HistogramSnapshot", snap["alpha_endpoint_payload_size_bytes"])
	}
	if h.Count != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count)
	}
}

func TestWritePrometheus(t *testing.T) {
	e, _ := populated()
	var buf strings.Builder
	if err := e.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE alpha_endpoint_sent_s1 counter",
		"alpha_endpoint_sent_s1 3",
		"alpha_endpoint_delivered 2",
		"# TYPE alpha_endpoint_payload_size_bytes histogram",
		// Buckets are cumulative: two observations at le=128, three by le=512.
		`alpha_endpoint_payload_size_bytes_bucket{le="128"} 2`,
		`alpha_endpoint_payload_size_bytes_bucket{le="512"} 3`,
		// +Inf covers the 1 MiB overflow observation.
		`alpha_endpoint_payload_size_bytes_bucket{le="+Inf"} 4`,
		"alpha_endpoint_payload_size_bytes_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

func TestWriteText(t *testing.T) {
	e, _ := populated()
	var buf strings.Builder
	if err := e.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Sorted output, one metric per line: 18 counters + 15 per-reason drop
	// counters + 6 gauges + 2 histograms.
	if len(lines) != 41 {
		t.Fatalf("got %d lines, want 41\n%s", len(lines), buf.String())
	}
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Fatalf("output not sorted: %q before %q", lines[i-1], lines[i])
		}
	}
	if !strings.Contains(buf.String(), "count=4 sum=") {
		t.Fatalf("histogram line missing count/sum:\n%s", buf.String())
	}
}

func TestWalkerFuncDynamicGroup(t *testing.T) {
	// A WalkerFunc computes its metrics at scrape time — the idiom the UDP
	// server uses to aggregate per-session endpoint metrics.
	calls := 0
	e := NewExporter()
	e.Register("dyn", WalkerFunc(func(v Visitor) {
		calls++
		v.Counter("scrapes", uint64(calls))
	}))
	if got := e.Snapshot()["dyn_scrapes"]; got != uint64(1) {
		t.Fatalf("first scrape = %v", got)
	}
	if got := e.Snapshot()["dyn_scrapes"]; got != uint64(2) {
		t.Fatalf("second scrape = %v, want 2 (walker must run per scrape)", got)
	}
}

func TestRegisterLabeled(t *testing.T) {
	e := NewExporter()
	a := NewEndpointMetrics()
	a.SentS1.Add(7)
	a.PayloadSize.Observe(100)
	b := NewEndpointMetrics()
	b.SentS1.Add(11)
	e.RegisterLabeled("alpha_session", `assoc="000000000000abcd"`, a)
	e.RegisterLabeled("alpha_session", `assoc="000000000000beef"`, b)

	var buf strings.Builder
	if err := e.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`alpha_session_sent_s1{assoc="000000000000abcd"} 7`,
		`alpha_session_sent_s1{assoc="000000000000beef"} 11`,
		// Histogram buckets merge the group labels with le.
		`alpha_session_payload_size_bytes_bucket{assoc="000000000000abcd",le="128"} 1`,
		`alpha_session_payload_size_bytes_sum{assoc="000000000000abcd"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// One family, two labeled groups: the TYPE line must not repeat.
	if n := strings.Count(out, "# TYPE alpha_session_sent_s1 counter"); n != 1 {
		t.Errorf("TYPE line for sent_s1 appears %d times, want 1", n)
	}

	// Snapshot keys keep the two associations distinct.
	snap := e.Snapshot()
	if got := snap[`alpha_session_sent_s1{assoc="000000000000abcd"}`]; got != uint64(7) {
		t.Errorf("labeled snapshot key = %v, want 7", got)
	}
	if got := snap[`alpha_session_sent_s1{assoc="000000000000beef"}`]; got != uint64(11) {
		t.Errorf("labeled snapshot key = %v, want 11", got)
	}
}

func TestRegisterDynamic(t *testing.T) {
	// A dynamic producer enumerates groups at scrape time, so per-session
	// families follow session churn without leaking registrations.
	sessions := map[string]*EndpointMetrics{}
	add := func(label string, s1 uint64) {
		m := NewEndpointMetrics()
		m.SentS1.Add(s1)
		sessions[label] = m
	}
	add(`assoc="0000000000000001"`, 1)
	e := NewExporter()
	e.RegisterDynamic(func(emit func(prefix, labels string, w Walker)) {
		for label, m := range sessions {
			emit("alpha_session", label, m)
		}
	})
	if got := e.Snapshot()[`alpha_session_sent_s1{assoc="0000000000000001"}`]; got != uint64(1) {
		t.Fatalf("first scrape = %v, want 1", got)
	}
	add(`assoc="0000000000000002"`, 2)
	delete(sessions, `assoc="0000000000000001"`)
	snap := e.Snapshot()
	if _, ok := snap[`alpha_session_sent_s1{assoc="0000000000000001"}`]; ok {
		t.Fatal("retired session still exported")
	}
	if got := snap[`alpha_session_sent_s1{assoc="0000000000000002"}`]; got != uint64(2) {
		t.Fatalf("new session = %v, want 2", got)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	e, _ := populated()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "alpha_endpoint_sent_s1 3") {
		t.Fatalf("prometheus body missing counter:\n%s", body)
	}
}

func TestHTTPTraceEndpoint(t *testing.T) {
	e, _ := populated()
	tr := NewTracer(64)
	tr.Trace(1000, TraceS1Sent, 0xabc, 1, 8)
	tr.Trace(2000, TraceRelayDrop, 0xabc, 2, ReasonUnsolicited)
	e.SetTracer(tr)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var records []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("got %d trace records, want 2", len(records))
	}
	if records[0]["kind"] != "S1Sent" || records[0]["assoc"] != float64(0xabc) {
		t.Fatalf("record 0 = %v", records[0])
	}
	// Drop events decode their Detail field into a reason name.
	if records[1]["kind"] != "RelayDrop" || records[1]["reason"] != "unsolicited" {
		t.Fatalf("record 1 = %v", records[1])
	}
	if _, ok := records[0]["reason"]; ok {
		t.Fatalf("non-drop record carries a reason: %v", records[0])
	}
}

func TestHTTPTraceEndpointNoTracer(t *testing.T) {
	e := NewExporter()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var records []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("tracerless /trace returned %d records", len(records))
	}
}
