package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/suite"
)

// freshShapes are the first exchanges of a new association the gates below
// run: churn_tokened's handshake plus two reliable base-mode messages, and
// the first batch of the ledger's ALPHA-C and ALPHA-M workloads.
var freshShapes = []struct {
	name     string
	cfg      Config
	messages int
	payload  int
}{
	{"base-2", Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}, 2, 64},
	{"C-16", Config{Mode: packet.ModeC, BatchSize: 16, ChainLen: 64}, 16, 1024},
	{"M-64", Config{Mode: packet.ModeM, BatchSize: 64, Reliable: true, ChainLen: 64}, 64, 1024},
}

// Allocations of a fresh association, per end: the endpoint's birth, the
// handshake, and the shape's messages sent, delivered and (reliable)
// acknowledged, initiator then responder. The first pair is a caller that
// hands every slice back, the second one that never calls Release. The
// comments give the figures of the same test before birth sized the first
// exchanges, when buffers started empty and grew by append, and before both
// ends kept their exchanges in one table: the responder's eviction ring, the
// initiator's order and snapshot lists, and either end's slice of per-message
// marks are gone. The third M-64 figure is before each end kept a
// verified-path memo: one allocation, at its first batched check.
var freshAllocs = map[string][2][2]uint64{
	// {handed back, kept}, and in the comment the same before each change
	"base-2": {{18, 16}, {21, 20}},   // {{50, 42}, {50, 45}}, {{22, 17}, {23, 21}}
	"C-16":   {{31, 28}, {32, 45}},   // {{89, 50}, {85, 67}}, {{35, 30}, {35, 47}}
	"M-64":   {{84, 83}, {149, 149}}, // {{152, 112}, {210, 178}}, {{87, 84}, {151, 150}}, {{83, 82}, {148, 148}}
}

// meteredEnd charges every allocation its endpoint makes to one counter.
// With release false it is a caller that keeps whatever it is given.
type meteredEnd struct {
	ep      *Endpoint
	allocs  *uint64
	release bool
}

var freshMem runtime.MemStats

func mallocs() uint64 {
	runtime.ReadMemStats(&freshMem)
	return freshMem.Mallocs
}

func (m meteredEnd) Handle(now time.Time, raw []byte) ([]Event, error) {
	before := mallocs()
	evs, err := m.ep.Handle(now, raw)
	*m.allocs += mallocs() - before
	return evs, err
}

func (m meteredEnd) Poll(now time.Time) ([][]byte, []Event) {
	before := mallocs()
	out, evs := m.ep.Poll(now)
	*m.allocs += mallocs() - before
	return out, evs
}

func (m meteredEnd) Release(out [][]byte, evs []Event) {
	if !m.release {
		return
	}
	before := mallocs()
	m.ep.Release(out, evs)
	*m.allocs += mallocs() - before
}

// freshAssociation runs one shape on a fresh pair and returns what each end
// allocated, initiator first.
func freshAssociation(t *testing.T, cfg Config, messages, size int, release bool) [2]uint64 {
	t.Helper()
	var allocs [2]uint64
	start := time.Unix(1700000000, 0)
	birth := func(side int) *Endpoint {
		before := mallocs()
		e, err := NewEndpoint(cfg)
		allocs[side] += mallocs() - before
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := birth(0), birth(1)
	delivered := 0
	p := path.Path[Event]{
		Now:  start,
		Ends: [2]path.Node[Event]{meteredEnd{a, &allocs[0], release}, meteredEnd{b, &allocs[1], release}},
		On: func(_ path.Side, ev Event) {
			if ev.Kind == EventDelivered {
				delivered++
			}
		},
	}
	before := mallocs()
	hs1, err := a.StartHandshake(start)
	allocs[0] += mallocs() - before
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Carry(path.A, 0, hs1); err != nil {
		t.Fatal(err)
	}
	if err := p.Settle(8); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := 0; i < messages; i++ {
		before := mallocs()
		_, err := a.Send(start, payload)
		allocs[0] += mallocs() - before
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Settle(16); err != nil {
		t.Fatal(err)
	}
	if delivered != messages || (cfg.Reliable && a.Stats().Acked != uint64(messages)) {
		t.Fatalf("delivered %d and acknowledged %d of %d messages", delivered, a.Stats().Acked, messages)
	}
	return allocs
}

// TestFreshAssociationAllocs is the birth-and-first-exchange allocation
// gate: it counts, exactly, what each end of a new association allocates
// until its first messages are delivered and acknowledged, for a caller
// that hands buffers back and for one that never does. The garbage
// collector is off and the test runs on one P, so the pools the suite keeps
// its hash states in, which an earlier association has filled, are neither
// emptied nor missed between the runs. The counters are the process's, so
// each figure is the least of three runs: whatever else runs can only add.
func TestFreshAssociationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sh := range freshShapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := sh.cfg
			cfg.Suite, cfg.FlushDelay = suite.SHA1(), -1
			if cfg.Mode != packet.ModeBase {
				cfg.FlushDelay = 0 // a full batch goes at once
			}
			freshAssociation(t, cfg, sh.messages, sh.payload, true) // fills the pools
			for i, release := range []bool{true, false} {
				got := freshAssociation(t, cfg, sh.messages, sh.payload, release)
				for range 2 {
					again := freshAssociation(t, cfg, sh.messages, sh.payload, release)
					got = [2]uint64{min(got[0], again[0]), min(got[1], again[1])}
				}
				t.Logf("release=%v: initiator %d, responder %d allocations", release, got[0], got[1])
				if want := freshAllocs[sh.name][i]; got != want {
					t.Errorf("release=%v: initiator and responder made %v allocations, want %v", release, got, want)
				}
			}
		})
	}
}

// TestFreshSlabsHoldExactly pins the slab reservation to the packets: on a
// fresh pair, after one honest exchange with payloads of assorted lengths,
// every exchange's slab is exactly full, so it was one allocation that
// never grew and holds no slack.
func TestFreshSlabsHoldExactly(t *testing.T) {
	shapes := []Config{
		{Mode: packet.ModeBase},
		{Mode: packet.ModeBase, Reliable: true},
		{Mode: packet.ModeC, BatchSize: 5},
		{Mode: packet.ModeC, BatchSize: 5, Reliable: true},
		{Mode: packet.ModeM, BatchSize: 7},
		{Mode: packet.ModeM, BatchSize: 7, Reliable: true},
		{Mode: packet.ModeCM, BatchSize: 13, CMRoots: 4},
		{Mode: packet.ModeCM, BatchSize: 13, CMRoots: 4, Reliable: true},
	}
	for _, st := range []suite.Suite{suite.SHA1(), suite.SHA256()} {
		for _, cfg := range shapes {
			cfg.Suite, cfg.ChainLen, cfg.FlushDelay = st, 64, -1
			h := newHarness(t, cfg)
			h.handshake()
			for i := 0; i < cfg.BatchSize || i == 0; i++ {
				if _, err := h.a.Send(h.now, make([]byte, 1+37*i%300)); err != nil {
					t.Fatal(err)
				}
			}
			h.a.Flush(h.now)
			h.run(20)
			var slabs []slab
			for _, x := range reusable(h.a) {
				slabs = append(slabs, x.slab)
			}
			for rx := h.b.rx.First(); rx != nil; rx = h.b.rx.Next(rx) {
				slabs = append(slabs, rx.slab)
			}
			if len(slabs) != 2 {
				t.Fatalf("%s %v reliable=%v: %d exchanges retired or buffered, want 2", st.Name(), cfg.Mode, cfg.Reliable, len(slabs))
			}
			for i, s := range slabs {
				if len(s.buf) != cap(s.buf) {
					t.Errorf("%s %v reliable=%v: %s slab holds %d of its %d bytes", st.Name(), cfg.Mode, cfg.Reliable, [2]string{"signer", "verifier"}[i], len(s.buf), cap(s.buf))
				}
			}
		}
	}
}
