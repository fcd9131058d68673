// Per-association flight recorder: a pool of span rings keyed by
// association, dump-on-anomaly capture, and the /flight HTTP endpoint.

package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"alpha/internal/telemetry"
)

// Anomaly causes recognised by the dump triggers.
const (
	CauseVerifyFail     = "verify_fail"
	CauseAdaptiveFlap   = "adaptive_flap"
	CauseChainLow       = "chain_low"
	CausePoolSaturation = "pool_saturation"
)

// Dump is one captured anomaly: the victim association's recent span
// history frozen at trigger time.
type Dump struct {
	Assoc uint64 `json:"assoc"`
	Cause string `json:"cause"`
	// Time is the timestamp of the newest span at capture (0 for an empty
	// ring) — deterministic under simulated clocks.
	Time  int64  `json:"time"`
	Spans []Span `json:"spans"`
}

const (
	maxDumps         = 32 // global bound on retained dumps
	maxDumpsPerAssoc = 4  // per-association bound, keeps one noisy peer from evicting the rest
)

// Recorder owns the per-association span rings. Rings are pooled: an
// association's ring returns to the pool when the association retires
// (after a reset), so steady-state churn allocates nothing — the same
// churn-safety discipline as the UDP server's retired-session metric
// aggregation. Lookup happens once per association at session setup, not
// per packet: callers hold the *SpanRing and emit through it directly.
type Recorder struct {
	size int

	mu      sync.RWMutex
	rings   map[uint64]*SpanRing
	dumps   []Dump
	byAssoc map[uint64]int // live dump count per association; no zero entries

	pool sync.Pool
}

// NewRecorder creates a flight recorder whose per-association rings hold
// size spans each (<= 0 selects DefaultSpanRingSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultSpanRingSize
	}
	rc := &Recorder{
		size:    size,
		rings:   make(map[uint64]*SpanRing),
		byAssoc: make(map[uint64]int),
	}
	rc.pool.New = func() any { return NewSpanRing(rc.size) }
	return rc
}

// Ring returns the association's span ring, creating (or reusing a pooled)
// one on first sight. The returned ring carries the recorder's
// verification-failure dump trigger. Resolve once per association and keep
// the pointer; the map lookup is not meant for the per-packet path. A nil
// recorder returns a nil ring, which is valid and free to emit into.
func (rc *Recorder) Ring(assoc uint64) *SpanRing {
	if rc == nil {
		return nil
	}
	rc.mu.RLock()
	r := rc.rings[assoc]
	rc.mu.RUnlock()
	if r != nil {
		return r
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if r = rc.rings[assoc]; r != nil {
		return r
	}
	r = rc.pool.Get().(*SpanRing)
	r.anomaly = rc.onDrop
	rc.rings[assoc] = r
	return r
}

// Shared returns the pre-association ring (key 0): the home for decisions
// taken before an exchange or association is identified — relay verdicts
// on unattributable packets, transport-level drops.
func (rc *Recorder) Shared() *SpanRing { return rc.Ring(0) }

// Retire unpublishes an association's ring and returns it to the pool
// after a reset, so the next association to appear reuses its memory with
// no history bleed-through.
func (rc *Recorder) Retire(assoc uint64) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	r := rc.rings[assoc]
	delete(rc.rings, assoc)
	rc.mu.Unlock()
	if r != nil {
		r.reset()
		r.anomaly = nil
		rc.pool.Put(r)
	}
}

// onDrop is the span-ring anomaly hook: verification failures freeze the
// association's history. Other drop reasons (loss artifacts, back
// pressure) are normal operation and do not trigger dumps.
func (rc *Recorder) onDrop(assoc uint64, seq, detail uint32) {
	if telemetry.ReasonInfo(detail).VerifyFail {
		rc.Trigger(assoc, CauseVerifyFail)
	}
}

// Trigger captures the association's current span history under the given
// cause. Callers wire the non-span anomaly sources here: offload
// downgrades, adaptive flaps, chain-low warnings. Bounded: at most
// maxDumpsPerAssoc dumps per association and maxDumps total are retained
// (oldest evicted first), so a flapping peer cannot grow memory. Safe for
// concurrent use; a nil recorder ignores the trigger.
func (rc *Recorder) Trigger(assoc uint64, cause string) {
	if rc == nil {
		return
	}
	rc.mu.RLock()
	r := rc.rings[assoc]
	rc.mu.RUnlock()
	spans := r.Snapshot() // nil-safe
	var ts int64
	if len(spans) > 0 {
		ts = spans[len(spans)-1].Time
	}
	d := Dump{Assoc: assoc, Cause: cause, Time: ts, Spans: spans}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.byAssoc[assoc] >= maxDumpsPerAssoc {
		// Replace the association's oldest dump instead of growing.
		for i := range rc.dumps {
			if rc.dumps[i].Assoc == assoc {
				rc.dumps = append(rc.dumps[:i], rc.dumps[i+1:]...)
				rc.forget(assoc)
				break
			}
		}
	}
	if len(rc.dumps) >= maxDumps {
		rc.forget(rc.dumps[0].Assoc)
		rc.dumps = rc.dumps[1:]
	}
	rc.dumps = append(rc.dumps, d)
	rc.byAssoc[assoc]++
}

// forget drops one of assoc's dumps from the count, and the association's
// key with its last one, so byAssoc holds at most maxDumps keys however
// many associations have triggered. Called with mu held.
func (rc *Recorder) forget(assoc uint64) {
	if rc.byAssoc[assoc]--; rc.byAssoc[assoc] == 0 {
		delete(rc.byAssoc, assoc)
	}
}

// Dumps returns the retained anomaly dumps, oldest first.
func (rc *Recorder) Dumps() []Dump {
	if rc == nil {
		return nil
	}
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	return append([]Dump(nil), rc.dumps...)
}

// Assocs lists the associations with live rings, sorted.
func (rc *Recorder) Assocs() []uint64 {
	if rc == nil {
		return nil
	}
	rc.mu.RLock()
	out := make([]uint64, 0, len(rc.rings))
	for a := range rc.rings {
		out = append(out, a)
	}
	rc.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot returns an association's current span history (nil when the
// association has no ring).
func (rc *Recorder) Snapshot(assoc uint64) []Span {
	if rc == nil {
		return nil
	}
	rc.mu.RLock()
	r := rc.rings[assoc]
	rc.mu.RUnlock()
	return r.Snapshot()
}

// spanJSON is the decoded wire form served by /flight.
type spanJSON struct {
	Time    int64  `json:"time"`
	Assoc   string `json:"assoc"`
	Key     uint32 `json:"key"`
	Seq     uint32 `json:"seq"`
	Role    string `json:"role"`
	Step    string `json:"step"`
	Mode    uint8  `json:"mode"`
	Verdict string `json:"verdict"`
	Detail  uint32 `json:"detail"`
	Reason  string `json:"reason,omitempty"`
}

func decodeSpans(spans []Span) []spanJSON {
	out := make([]spanJSON, 0, len(spans))
	for _, s := range spans {
		j := spanJSON{
			Time:    s.Time,
			Assoc:   fmt.Sprintf("%016x", s.Assoc),
			Key:     s.Key,
			Seq:     s.Seq,
			Role:    RoleString(s.Role),
			Step:    StepString(s.Step),
			Mode:    s.Mode,
			Verdict: VerdictString(s.Verdict),
			Detail:  s.Detail,
		}
		if s.Verdict == VerdictDrop {
			j.Reason = telemetry.ReasonString(s.Detail)
		}
		out = append(out, j)
	}
	return out
}

// ServeHTTP implements the /flight endpoint. Without parameters it lists
// live associations and retained anomaly dumps; ?assoc=<hex|dec> returns
// one association's decoded span history.
func (rc *Recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if q := r.URL.Query().Get("assoc"); q != "" {
		assoc, err := strconv.ParseUint(q, 16, 64)
		if err != nil {
			if assoc, err = strconv.ParseUint(q, 10, 64); err != nil {
				http.Error(w, "bad assoc: "+q, http.StatusBadRequest)
				return
			}
		}
		enc.Encode(map[string]any{
			"assoc": fmt.Sprintf("%016x", assoc),
			"spans": decodeSpans(rc.Snapshot(assoc)),
		})
		return
	}
	assocs := make([]string, 0)
	for _, a := range rc.Assocs() {
		assocs = append(assocs, fmt.Sprintf("%016x", a))
	}
	type dumpJSON struct {
		Assoc string     `json:"assoc"`
		Cause string     `json:"cause"`
		Time  int64      `json:"time"`
		Spans []spanJSON `json:"spans"`
	}
	dumps := make([]dumpJSON, 0)
	for _, d := range rc.Dumps() {
		dumps = append(dumps, dumpJSON{
			Assoc: fmt.Sprintf("%016x", d.Assoc),
			Cause: d.Cause,
			Time:  d.Time,
			Spans: decodeSpans(d.Spans),
		})
	}
	enc.Encode(map[string]any{"assocs": assocs, "dumps": dumps})
}
