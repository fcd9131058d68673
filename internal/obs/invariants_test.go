package obs

import (
	"strings"
	"testing"

	"alpha/internal/telemetry"
)

const sampleScrape = `# HELP alpha_endpoint_sent_s1 cumulative count
# TYPE alpha_endpoint_sent_s1 counter
alpha_endpoint_sent_s1 10
# TYPE alpha_endpoint_dropped counter
alpha_endpoint_dropped 3
# TYPE alpha_endpoint_drop_malformed counter
alpha_endpoint_drop_malformed 1
# TYPE alpha_endpoint_drop_unsolicited counter
alpha_endpoint_drop_unsolicited 2
# TYPE alpha_endpoint_chain_remaining gauge
alpha_endpoint_chain_remaining 42
# TYPE alpha_endpoint_verify_ns histogram
alpha_endpoint_verify_ns_bucket{le="1000"} 5
alpha_endpoint_verify_ns_sum 2048
alpha_endpoint_verify_ns_count 5
`

func TestParsePrometheus(t *testing.T) {
	snap, counters, err := ParsePrometheus(strings.NewReader(sampleScrape))
	if err != nil {
		t.Fatal(err)
	}
	if snap["alpha_endpoint_sent_s1"] != 10 {
		t.Fatalf("sent_s1 = %d", snap["alpha_endpoint_sent_s1"])
	}
	if snap["alpha_endpoint_dropped"] != 3 {
		t.Fatalf("dropped = %d", snap["alpha_endpoint_dropped"])
	}
	if !counters["alpha_endpoint_sent_s1"] {
		t.Fatal("counter TYPE not tracked")
	}
	if counters["alpha_endpoint_chain_remaining"] {
		t.Fatal("gauge must not have counter semantics")
	}
	if !counters[`alpha_endpoint_verify_ns_bucket{le="1000"}`] || !counters["alpha_endpoint_verify_ns_count"] {
		t.Fatal("histogram series are cumulative and must count as counters")
	}
}

func TestCheckCleanSnapshot(t *testing.T) {
	snap, _, err := ParsePrometheus(strings.NewReader(sampleScrape))
	if err != nil {
		t.Fatal(err)
	}
	inv := Invariants{Benign: false}
	if v := inv.Check(snap); len(v) != 0 {
		t.Fatalf("clean snapshot violated: %+v", v)
	}
}

func TestCheckI2BenignVerifyFail(t *testing.T) {
	snap := MetricSnapshot{
		"alpha_endpoint_dropped":          1,
		"alpha_endpoint_drop_bad_payload": 1,
	}
	v := (Invariants{Benign: true}).Check(snap)
	if len(v) == 0 {
		t.Fatal("benign run with verify failures must violate I2")
	}
	if v[0].Rule != "I2-benign-clean" {
		t.Fatalf("rule = %s, want I2-benign-clean", v[0].Rule)
	}
	// The same snapshot under an adversarial schedule is fine.
	if v := (Invariants{Benign: false}).Check(snap); len(v) != 0 {
		t.Fatalf("adversarial schedule should accept verify fails: %+v", v)
	}

	// The hostile set is exactly these seven reasons, for every code the
	// table knows and one it does not.
	hostile := map[string]bool{
		"malformed": true, "bad_element": true, "bad_payload": true, "bad_ack": true,
		"admission_invalid": true, "admission_replayed": true, "admission_addr_mismatch": true,
	}
	var found int
	for _, code := range append(allReasonCodes(), 9999) {
		name := telemetry.ReasonString(code)
		snap := MetricSnapshot{"alpha_x_dropped": 1, "alpha_x_" + telemetry.DropSample(code): 1}
		if got := len((Invariants{Benign: true}).Check(snap)) != 0; got != hostile[name] {
			t.Errorf("I2 on drop_%s: violated=%v, want %v", name, got, hostile[name])
		} else if got {
			found++
		}
	}
	if found != len(hostile) {
		t.Errorf("I2 fired for %d reasons, want %d", found, len(hostile))
	}
}

func allReasonCodes() (codes []uint32) {
	for code := telemetry.ReasonNone; code < telemetry.NumReasons; code++ {
		codes = append(codes, code)
	}
	return codes
}

func TestCheckI3DropBudget(t *testing.T) {
	// drop_ sum (4) != dropped (3).
	snap := MetricSnapshot{
		"alpha_relay_dropped":          3,
		"alpha_relay_drop_malformed":   2,
		"alpha_relay_drop_unsolicited": 2,
	}
	v := (Invariants{}).Check(snap)
	if len(v) != 1 || v[0].Rule != "I3-drop-budget" {
		t.Fatalf("unbalanced drop family: got %+v, want one I3-drop-budget", v)
	}
	// Labeled families are matched label-for-label, not cross-bled.
	labeled := MetricSnapshot{
		`alpha_relay_dropped{assoc="a"}`:        2,
		`alpha_relay_drop_malformed{assoc="a"}`: 2,
		`alpha_relay_dropped{assoc="b"}`:        1,
		`alpha_relay_drop_malformed{assoc="b"}`: 1,
	}
	if v := (Invariants{}).Check(labeled); len(v) != 0 {
		t.Fatalf("labeled families flagged: %+v", v)
	}
}

func TestCheckI4Conservation(t *testing.T) {
	snap := MetricSnapshot{
		"alpha_endpoint_delivered": 9,
		"alpha_endpoint_recv_s2":   5,
	}
	v := (Invariants{}).Check(snap)
	if len(v) != 1 || v[0].Rule != "I4-conservation" {
		t.Fatalf("delivered > recv_s2: got %+v, want one I4-conservation", v)
	}
	snap["alpha_endpoint_recv_s2"] = 9
	if v := (Invariants{}).Check(snap); len(v) != 0 {
		t.Fatalf("balanced flow flagged: %+v", v)
	}

	transport := MetricSnapshot{
		"alpha_transport_datagrams":   10,
		"alpha_transport_inbox_drops": 20,
	}
	v = (Invariants{}).Check(transport)
	if len(v) != 1 || v[0].Rule != "I4-conservation" {
		t.Fatalf("classified drops > datagrams: got %+v", v)
	}
}

func TestCheckI4DropBound(t *testing.T) {
	snap := MetricSnapshot{
		"alpha_relay_dropped":          500,
		"alpha_relay_drop_unsolicited": 500,
	}
	inv := Invariants{Offered: 100, Loss: 0.1, Hops: 2, Benign: false}
	v := inv.Check(snap)
	if len(v) != 1 || v[0].Rule != "I4-drop-bound" {
		t.Fatalf("500 drops on 100 offered at 10%% loss: got %+v, want I4-drop-bound", v)
	}
	// Within budget passes.
	snap["alpha_relay_dropped"] = 50
	snap["alpha_relay_drop_unsolicited"] = 50
	if v := inv.Check(snap); len(v) != 0 {
		t.Fatalf("within-budget drops flagged: %+v", v)
	}
	// Lossless schedules allow no drops at all.
	lossless := Invariants{Offered: 100, Loss: 0}
	if v := lossless.Check(snap); len(v) != 1 {
		t.Fatalf("drops on a lossless schedule must violate: %+v", v)
	}
	// MaxDrops overrides the derived bound.
	if v := (Invariants{Offered: 100, Loss: 0, MaxDrops: 1000}).Check(snap); len(v) != 0 {
		t.Fatalf("MaxDrops override ignored: %+v", v)
	}
}

func TestMonotonic(t *testing.T) {
	counters := map[string]bool{"alpha_endpoint_sent_s1": true, "alpha_endpoint_dropped": true}
	prev := MetricSnapshot{"alpha_endpoint_sent_s1": 5, "alpha_endpoint_dropped": 1}
	cur := MetricSnapshot{"alpha_endpoint_sent_s1": 9, "alpha_endpoint_dropped": 1}
	if v := Monotonic(prev, cur, counters); len(v) != 0 {
		t.Fatalf("nondecreasing counters flagged: %+v", v)
	}
	cur["alpha_endpoint_sent_s1"] = 4
	v := Monotonic(prev, cur, counters)
	if len(v) != 1 || v[0].Rule != "I1-monotonic" {
		t.Fatalf("regressed counter must violate I1, got %+v", v)
	}
	// Gauges may regress freely; vanished labeled samples are skipped.
	cur["alpha_endpoint_gauge"] = 0
	prev["alpha_endpoint_gauge"] = 10
	delete(cur, "alpha_endpoint_dropped")
	if v := Monotonic(prev, cur, counters); len(v) != 1 {
		t.Fatalf("only the counter regression should flag: %+v", v)
	}
}

func TestCollect(t *testing.T) {
	exp := telemetry.NewExporter()
	m := telemetry.NewEndpointMetrics()
	m.SentS1.Add(7)
	m.NoteDrop(telemetry.ReasonMalformed)
	exp.Register("alpha_endpoint", m)
	snap, counters, err := Collect(exp)
	if err != nil {
		t.Fatal(err)
	}
	if snap["alpha_endpoint_sent_s1"] != 7 {
		t.Fatalf("collected sent_s1 = %d", snap["alpha_endpoint_sent_s1"])
	}
	if !counters["alpha_endpoint_dropped"] {
		t.Fatal("collected counter set missing dropped")
	}
	// Live exporter honours I3 exactly: NoteDrop bumps both families.
	if v := (Invariants{}).Check(snap); len(v) != 0 {
		t.Fatalf("live exporter snapshot violated: %+v", v)
	}
}
