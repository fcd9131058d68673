package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"alpha/internal/core"
	"alpha/internal/obs"
	"alpha/internal/relay"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
)

// The allocation ledger drives one association in lockstep in a single
// goroutine with no sockets — signer Endpoint → relay.Relay × n → verifier
// Endpoint and back — and reads runtime.MemStats between protocol phases.
// With nothing else running, every allocation between two readings belongs
// to the one node that ran, so allocs and bytes are attributed exactly.

// ledgerCost is what one kind of node allocated over the ledger run.
type ledgerCost struct {
	allocs, bytes uint64
}

// The kinds of node the ledger tells apart.
const (
	nodeSigner = iota
	nodeRelay
	nodeVerifier
	nodeKinds
)

type ledger struct {
	ops           int
	cost          [nodeKinds]ledgerCost
	relayDgrams   int // datagrams the relays processed
	spans, events int // probe records the program would emit (probes run only)
}

func heapCounters() (allocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// meter charges what is allocated between two readings to one kind of node.
// The meter of a nil ledger reads nothing, so uncharged runs cost nothing.
type meter struct {
	lg            *ledger
	allocs, bytes uint64
}

func (lg *ledger) meter() meter {
	m := meter{lg: lg}
	if lg != nil {
		m.allocs, m.bytes = heapCounters()
	}
	return m
}

// charge adds what was allocated since the last reading to node.
func (m *meter) charge(node int) {
	if m.lg == nil {
		return
	}
	a, b := heapCounters()
	m.lg.cost[node].allocs += a - m.allocs
	m.lg.cost[node].bytes += b - m.bytes
	m.allocs, m.bytes = a, b
}

// lockstep is the socket-less topology.
type lockstep struct {
	w                *workload
	signer, verifier *core.Endpoint
	relays           []*relay.Relay
	spans            *obs.SpanRing     // the program's own probes; nil = off
	tracer           *telemetry.Tracer // likewise
	now              time.Time
	delivered        int
	acked            int
	// hop is the harness's own scratch for carrying datagrams across the
	// relay line; it keeps its capacity so that, after the first exchange,
	// the harness allocates nothing and every allocation is a node's.
	hop [2][][]byte
	hs  [1][]byte
}

func newLockstep(w *workload, spans *obs.SpanRing, tracer *telemetry.Tracer) (*lockstep, error) {
	l := &lockstep{w: w, spans: spans, tracer: tracer, now: time.Unix(1_700_000_000, 0)}
	for i := 0; i < w.relays; i++ {
		l.relays = append(l.relays, relay.New(relay.Config{Spans: spans, Tracer: tracer}))
	}
	return l, l.associate(nil)
}

// associate builds a fresh endpoint pair and runs its handshake through the
// relays. lg, when set, is charged for it: on churn_tokened the operation is
// a whole association, so construction and handshake are per-op there.
func (l *lockstep) associate(lg *ledger) error {
	cfg := l.w.coreConfig(suite.SHA1())
	cfg.Spans, cfg.Tracer = l.spans, l.tracer
	cfg.FlushDelay = -1 // whole batches only; nothing waits on a clock
	m := lg.meter()
	var err error
	if l.signer, err = core.NewEndpoint(cfg); err != nil {
		return err
	}
	if l.hs[0], err = l.signer.StartHandshake(l.now); err != nil {
		return err
	}
	m.charge(nodeSigner)
	if l.verifier, err = core.NewEndpoint(cfg); err != nil {
		return err
	}
	m.charge(nodeVerifier)
	if err := l.settle(l.hs[:], lg); err != nil {
		return err
	}
	if !l.signer.Established() || !l.verifier.Established() {
		return fmt.Errorf("lockstep handshake did not establish")
	}
	return nil
}

// through runs datagrams across the relay line (downstream: signer to
// verifier) and returns what the relays forwarded.
func (l *lockstep) through(in [][]byte, downstream bool, lg *ledger) ([][]byte, error) {
	for i := range l.relays {
		r, upstream := l.relays[i], 0
		if !downstream {
			r, upstream = l.relays[len(l.relays)-1-i], 1
		}
		out := l.hop[i%2][:0]
		for _, raw := range in {
			d := r.ProcessFrom(l.now, upstream, raw)
			if d.Verdict != relay.Forward {
				return nil, fmt.Errorf("lockstep relay dropped honest traffic: %v", d.Reason)
			}
			if d.Rewritten != nil {
				raw = d.Rewritten
			}
			out = append(out, raw)
		}
		if lg != nil {
			lg.relayDgrams += len(in)
		}
		l.hop[i%2] = out
		in = out
	}
	return in, nil
}

// settle carries datagrams back and forth until both outboxes are empty.
// toVerifier starts the exchange; lg, when set, is charged phase by phase.
func (l *lockstep) settle(toVerifier [][]byte, lg *ledger) error {
	m := lg.meter()
	for round := 0; len(toVerifier) > 0; round++ {
		if round > 64 {
			return fmt.Errorf("lockstep exchange did not settle")
		}
		fwd, err := l.through(toVerifier, true, lg)
		if err != nil {
			return err
		}
		m.charge(nodeRelay)
		for _, raw := range fwd {
			evs, _ := l.verifier.Handle(l.now, raw)
			l.count(evs)
		}
		back, evs := l.verifier.Poll(l.now)
		l.count(evs)
		m.charge(nodeVerifier)
		if back, err = l.through(back, false, lg); err != nil {
			return err
		}
		m.charge(nodeRelay)
		for _, raw := range back {
			evs, _ := l.signer.Handle(l.now, raw)
			l.count(evs)
		}
		toVerifier, evs = l.signer.Poll(l.now)
		l.count(evs)
		m.charge(nodeSigner)
	}
	return nil
}

func (l *lockstep) count(evs []core.Event) {
	for _, ev := range evs {
		switch ev.Kind {
		case core.EventDelivered:
			l.delivered++
		case core.EventAcked:
			l.acked++
		}
	}
}

// exchange sends one whole batch and settles it.
func (l *lockstep) exchange(first int, payload []byte, lg *ledger) error {
	m := lg.meter()
	for i := 0; i < l.w.batch; i++ {
		binary.BigEndian.PutUint64(payload, uint64(first+i))
		if _, err := l.signer.Send(l.now, payload); err != nil {
			return err
		}
	}
	out, evs := l.signer.Poll(l.now)
	l.count(evs)
	m.charge(nodeSigner)
	l.now = l.now.Add(time.Millisecond)
	return l.settle(out, lg)
}

// ledgerOps sizes the lockstep runs: enough exchanges for exact per-op
// averages, small enough to be a footnote in the traced run's duration.
func ledgerOps(w *workload) int {
	if w.churn {
		return min(256, w.ops)
	}
	ops := max(32*w.batch, 1024)
	return min(ops, max(w.ops, w.batch)) / w.batch * w.batch
}

// run drives ops operations. On a data workload an operation is one message
// on a standing association; on churn_tokened it is a whole association:
// both endpoints built, the handshake, and churnMessages messages.
func (l *lockstep) run(ops int, lg *ledger) error {
	payload := make([]byte, l.w.payload)
	l.delivered, l.acked = 0, 0
	want := ops
	if l.w.churn {
		want = ops * churnMessages
		for op := 0; op < ops; op++ {
			if err := l.associate(lg); err != nil {
				return err
			}
			for k := 0; k < churnMessages; k++ {
				if err := l.exchange(op, payload, lg); err != nil {
					return err
				}
			}
		}
	} else {
		for op := 0; op < ops; op += l.w.batch {
			if err := l.exchange(op, payload, lg); err != nil {
				return err
			}
		}
	}
	if l.delivered != want || (l.w.reliable && l.acked != want) {
		return fmt.Errorf("lockstep delivered %d and acked %d of %d", l.delivered, l.acked, want)
	}
	return nil
}

// runLedger runs the lockstep exchange twice: once plain, reading the heap
// counters between phases, and once with the program's own probes switched
// on (obs span ring and telemetry tracer) to count the records each
// operation would emit; the probes stay off everywhere else.
func runLedger(w *workload) (*ledger, error) {
	ops := ledgerOps(w)
	lg := &ledger{ops: ops}
	l, err := newLockstep(w, nil, nil)
	if err != nil {
		return nil, err
	}
	// One uncharged operation first: lazily built state (HMAC pads, maps,
	// the harness's own scratch) belongs to set-up, not to the ledger.
	if err := l.run(w.batch, nil); err != nil {
		return nil, err
	}
	if err := l.run(ops, lg); err != nil {
		return nil, err
	}

	ringSize := 64 * (ops + w.batch)
	spans, tracer := obs.NewSpanRing(ringSize), telemetry.NewTracer(ringSize)
	if l, err = newLockstep(w, spans, tracer); err != nil {
		return nil, err
	}
	s0, e0 := spans.Len(), tracer.Len()
	if err := l.run(ops, nil); err != nil {
		return nil, err
	}
	lg.spans, lg.events = spans.Len()-s0, tracer.Len()-e0
	if spans.Len() >= ringSize || tracer.Len() >= ringSize {
		return nil, fmt.Errorf("probe rings overflowed (%d spans, %d events in %d slots)", spans.Len(), tracer.Len(), ringSize)
	}
	return lg, nil
}
