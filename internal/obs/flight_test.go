package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"alpha/internal/telemetry"
)

func TestRecorderRingLifecycle(t *testing.T) {
	rc := NewRecorder(32)
	r1 := rc.Ring(1)
	if r1 == nil {
		t.Fatal("Ring returned nil")
	}
	if rc.Ring(1) != r1 {
		t.Fatal("Ring not stable per association")
	}
	r1.Emit(5, 1, 9, 1, RoleReceiver, StepS1, 0, VerdictRecv, 0)
	if got := rc.Snapshot(1); len(got) != 1 {
		t.Fatalf("Snapshot = %d spans", len(got))
	}
	rc.Retire(1)
	if got := rc.Snapshot(1); got != nil {
		t.Fatalf("retired association still has %d spans", len(got))
	}
	// The pooled ring returns blank for the next association.
	r2 := rc.Ring(2)
	if r2.Len() != 0 {
		t.Fatalf("pooled ring not reset: %d spans bleed through", r2.Len())
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rc *Recorder
	if rc.Ring(1) != nil || rc.Shared() != nil {
		t.Fatal("nil recorder must hand out nil rings")
	}
	rc.Retire(1)
	rc.Trigger(1, CauseChainLow)
	if rc.Dumps() != nil || rc.Assocs() != nil {
		t.Fatal("nil recorder must be empty")
	}
}

func TestVerifyFailTriggersDump(t *testing.T) {
	rc := NewRecorder(32)
	r := rc.Ring(7)
	r.Emit(1, 7, 5, 1, RoleReceiver, StepS1, 0, VerdictRecv, 0)
	// Loss-artifact drops do not trigger dumps.
	r.Emit(2, 7, 5, 1, RoleReceiver, StepS2, 0, VerdictDrop, telemetry.ReasonUnsolicited)
	if len(rc.Dumps()) != 0 {
		t.Fatal("unsolicited drop must not dump")
	}
	// A verification failure freezes the history.
	r.Emit(3, 7, 5, 1, RoleReceiver, StepS2, 0, VerdictDrop, telemetry.ReasonBadPayload)
	dumps := rc.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Assoc != 7 || d.Cause != CauseVerifyFail || d.Time != 3 || len(d.Spans) != 3 {
		t.Fatalf("dump = %+v", d)
	}

	// Exactly the three failed checks of an established exchange dump.
	dumps3 := map[uint32]bool{telemetry.ReasonBadElement: true, telemetry.ReasonBadPayload: true, telemetry.ReasonBadAck: true}
	for _, code := range append(allReasonCodes(), 9999) {
		rc := NewRecorder(16)
		rc.Ring(1).Emit(1, 1, 5, 1, RoleRelay, StepS2, 0, VerdictDrop, code)
		if got := len(rc.Dumps()) == 1; got != dumps3[code] {
			t.Errorf("drop for %s: dumped=%v, want %v", telemetry.ReasonString(code), got, dumps3[code])
		}
	}
}

func TestDumpBounds(t *testing.T) {
	rc := NewRecorder(16)
	// One association cannot hold more than its per-assoc quota.
	rc.Ring(1).Emit(1, 1, 2, 3, RoleSender, StepS1, 0, VerdictSent, 0)
	for i := 0; i < maxDumpsPerAssoc+3; i++ {
		rc.Trigger(1, CauseAdaptiveFlap)
	}
	if got := len(rc.Dumps()); got != maxDumpsPerAssoc {
		t.Fatalf("per-assoc dumps = %d, want %d", got, maxDumpsPerAssoc)
	}
	// The global cap evicts oldest-first across associations.
	for a := uint64(2); a < uint64(2+maxDumps); a++ {
		rc.Trigger(a, CauseChainLow)
	}
	if got := len(rc.Dumps()); got != maxDumps {
		t.Fatalf("global dumps = %d, want %d", got, maxDumps)
	}
}

// TestDumpCountsForgetEvictedAssocs triggers on many more associations
// than the recorder keeps dumps for: the per-association counts must follow
// the evictions out, not keep one key per association ever seen.
func TestDumpCountsForgetEvictedAssocs(t *testing.T) {
	rc := NewRecorder(16)
	for a := uint64(1); a <= 10_000; a++ {
		rc.Trigger(a, CauseChainLow)
	}
	if got := len(rc.Dumps()); got != maxDumps {
		t.Fatalf("dumps = %d, want %d", got, maxDumps)
	}
	rc.mu.RLock()
	keys := len(rc.byAssoc)
	rc.mu.RUnlock()
	if keys > maxDumps {
		t.Fatalf("byAssoc holds %d associations for %d dumps", keys, maxDumps)
	}
}

func TestFlightHTTP(t *testing.T) {
	rc := NewRecorder(16)
	r := rc.Ring(0xabcd)
	r.Emit(10, 0xabcd, 7, 1, RoleReceiver, StepS2, 0, VerdictDrop, telemetry.ReasonBadPayload)

	// Index view.
	rec := httptest.NewRecorder()
	rc.ServeHTTP(rec, httptest.NewRequest("GET", "/flight", nil))
	var idx struct {
		Assocs []string `json:"assocs"`
		Dumps  []struct {
			Cause string `json:"cause"`
		} `json:"dumps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatalf("index not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(idx.Assocs) != 1 || idx.Assocs[0] != "000000000000abcd" {
		t.Fatalf("assocs = %v", idx.Assocs)
	}
	if len(idx.Dumps) != 1 || idx.Dumps[0].Cause != CauseVerifyFail {
		t.Fatalf("dumps = %+v", idx.Dumps)
	}

	// Single-association view, hex key.
	rec = httptest.NewRecorder()
	rc.ServeHTTP(rec, httptest.NewRequest("GET", "/flight?assoc=abcd", nil))
	if !strings.Contains(rec.Body.String(), `"reason": "bad_payload"`) {
		t.Fatalf("span view missing decoded reason:\n%s", rec.Body.String())
	}

	// Bad key.
	rec = httptest.NewRecorder()
	rc.ServeHTTP(rec, httptest.NewRequest("GET", "/flight?assoc=zzz", nil))
	if rec.Code != 400 {
		t.Fatalf("bad assoc code = %d", rec.Code)
	}
}

func TestHandlerRoutes(t *testing.T) {
	exp := telemetry.NewExporter()
	m := telemetry.NewEndpointMetrics()
	m.SentS1.Add(4)
	exp.Register("alpha_endpoint", m)
	rc := NewRecorder(16)
	h := Handler(exp, rc)

	for _, tc := range []struct{ path, want string }{
		{"/metrics", "alpha_endpoint_sent_s1 4"},
		{"/flight", `"assocs"`},
		{"/debug/pprof/cmdline", ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d", tc.path, rec.Code)
		}
		if tc.want != "" && !strings.Contains(rec.Body.String(), tc.want) {
			t.Fatalf("%s missing %q:\n%s", tc.path, tc.want, rec.Body.String())
		}
	}
}
