package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"alpha/internal/packet"
	"alpha/internal/suite"
)

func TestSendBeforeEstablished(t *testing.T) {
	e, err := NewEndpoint(baseConfig(packet.ModeBase, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Send(time.Now(), []byte("early")); !errors.Is(err, ErrNotEstablished) {
		t.Fatalf("Send before handshake: %v", err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, false))
	h.handshake()
	if _, err := h.a.Send(h.now, make([]byte, packet.MaxPayload+1)); err == nil {
		t.Fatalf("oversized payload accepted")
	}
	// The boundary itself is fine.
	if _, err := h.a.Send(h.now, make([]byte, packet.MaxPayload)); err != nil {
		t.Fatalf("boundary payload rejected: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Mode: 7},
		{ChainLen: 3},   // odd
		{ChainLen: -2},  // negative
		{BatchSize: -1}, // negative batch
		{Mode: packet.ModeC, BatchSize: packet.MaxMACs + 1}, // oversized batch
	}
	for i, cfg := range cases {
		if _, err := NewEndpoint(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestMaxOutstandingQueues(t *testing.T) {
	cfg := baseConfig(packet.ModeBase, true)
	cfg.MaxOutstanding = 2
	h := newHarness(t, cfg)
	h.handshake()
	// Queue 6 messages without letting any packets flow.
	for i := 0; i < 6; i++ {
		if _, err := h.a.Send(h.now, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	if got := h.a.InFlight(); got != 2 {
		t.Fatalf("in flight %d, want MaxOutstanding=2", got)
	}
	if got := h.a.QueueLen(); got != 4 {
		t.Fatalf("queued %d, want 4", got)
	}
	// Now let everything drain: the queue feeds the freed slots.
	h.runFor(3 * time.Second)
	if got := len(h.payloadsDelivered(h.b)); got != 6 {
		t.Fatalf("delivered %d/6", got)
	}
}

func TestFlushDelayTimerFlushesPartialBatch(t *testing.T) {
	cfg := baseConfig(packet.ModeC, false)
	cfg.BatchSize = 8
	cfg.FlushDelay = 20 * time.Millisecond
	h := newHarness(t, cfg)
	h.handshake()
	if _, err := h.a.Send(h.now, []byte("lone message")); err != nil {
		t.Fatal(err)
	}
	// Without Flush: nothing yet...
	out, _ := h.a.Poll(h.now)
	if len(out) != 0 {
		t.Fatalf("partial batch flushed immediately")
	}
	// ...until the linger timer expires.
	h.runFor(200 * time.Millisecond)
	if got := len(h.payloadsDelivered(h.b)); got != 1 {
		t.Fatalf("linger flush never happened: %d", got)
	}
}

func TestNegativeFlushDelayNeverAutoFlushes(t *testing.T) {
	cfg := baseConfig(packet.ModeC, false)
	cfg.BatchSize = 8
	cfg.FlushDelay = -1
	h := newHarness(t, cfg)
	h.handshake()
	if _, err := h.a.Send(h.now, []byte("waiting")); err != nil {
		t.Fatal(err)
	}
	h.runFor(2 * time.Second)
	if got := len(h.payloadsDelivered(h.b)); got != 0 {
		t.Fatalf("auto-flush happened despite FlushDelay<0")
	}
	h.a.Flush(h.now)
	h.run(20)
	if got := len(h.payloadsDelivered(h.b)); got != 1 {
		t.Fatalf("explicit Flush failed: %d", got)
	}
}

func TestTamperedBatchMessageNackedIndividually(t *testing.T) {
	// In a reliable ALPHA-M batch, tampering with exactly one S2 must
	// nack exactly that message (AMT selective repeat) while its
	// siblings are acked and delivered.
	cfg := baseConfig(packet.ModeM, true)
	cfg.BatchSize = 4
	h := newHarness(t, cfg)
	h.handshake()
	tampered := false
	h.mangle = func(raw []byte) []byte {
		hdr, msg, err := packet.Decode(raw)
		if err != nil || hdr.Type != packet.TypeS2 {
			return raw
		}
		s2 := msg.(*packet.S2)
		if s2.MsgIndex != 2 || tampered {
			return raw
		}
		tampered = true
		s2.Payload = []byte("evil")
		out, _ := packet.Encode(hdr, s2)
		return out
	}
	for i := 0; i < 4; i++ {
		if _, err := h.a.Send(h.now, []byte(fmt.Sprintf("batch-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	h.runFor(3 * time.Second)
	if !tampered {
		t.Fatalf("tamper never applied")
	}
	if got := h.countKind(h.a, EventNacked); got != 1 {
		t.Fatalf("nacks %d, want exactly 1", got)
	}
	if got := h.countKind(h.a, EventAcked); got != 4 {
		t.Fatalf("acked %d, want all 4 after selective repeat", got)
	}
	got := h.payloadsDelivered(h.b)
	if len(got) != 4 {
		t.Fatalf("delivered %d/4", len(got))
	}
	seen := map[string]bool{}
	for _, p := range got {
		seen[string(p)] = true
	}
	if !seen["batch-2"] {
		t.Fatalf("tampered slot never recovered: %q", got)
	}
}

func TestDuplicateA2Ignored(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	h.handshake()
	var a2raw []byte
	h.mangle = func(raw []byte) []byte {
		hdr, _, err := packet.Decode(raw)
		if err == nil && hdr.Type == packet.TypeA2 && a2raw == nil {
			a2raw = append([]byte(nil), raw...)
		}
		return raw
	}
	if _, err := h.a.Send(h.now, []byte("once")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.run(30)
	if a2raw == nil {
		t.Fatal("no A2 captured")
	}
	if h.countKind(h.a, EventAcked) != 1 {
		t.Fatal("setup: not acked")
	}
	h.deliver(h.a, a2raw)
	h.deliver(h.a, a2raw)
	if got := h.countKind(h.a, EventAcked); got != 1 {
		t.Fatalf("duplicate A2 produced extra acks: %d", got)
	}
}

func TestNextTimeoutReflectsState(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	if _, ok := h.a.NextTimeout(); ok {
		t.Fatalf("fresh endpoint should have no deadline")
	}
	if _, err := h.a.StartHandshake(h.now); err != nil {
		t.Fatal(err)
	}
	if ddl, ok := h.a.NextTimeout(); !ok || !ddl.After(h.now) {
		t.Fatalf("handshake deadline missing: %v %v", ddl, ok)
	}
}

func TestModeMSingleMessageBatch(t *testing.T) {
	// A Merkle tree of one leaf must still work end to end.
	cfg := baseConfig(packet.ModeM, true)
	cfg.BatchSize = 4
	h := newHarness(t, cfg)
	h.handshake()
	if _, err := h.a.Send(h.now, []byte("lonely leaf")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now) // batch of 1 despite BatchSize 4
	h.run(30)
	if got := h.payloadsDelivered(h.b); len(got) != 1 || string(got[0]) != "lonely leaf" {
		t.Fatalf("single-leaf batch failed: %q", got)
	}
	if h.countKind(h.a, EventAcked) != 1 {
		t.Fatalf("single-leaf batch not acked")
	}
}

func TestEmptyPayloadMessage(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	h.handshake()
	if _, err := h.a.Send(h.now, nil); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.run(30)
	if got := h.payloadsDelivered(h.b); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty payload mishandled: %q", got)
	}
}

func TestLargePayloadAllModes(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, 32<<10)
	for _, mode := range []packet.Mode{packet.ModeBase, packet.ModeC, packet.ModeM} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, baseConfig(mode, true))
			h.handshake()
			if _, err := h.a.Send(h.now, big); err != nil {
				t.Fatal(err)
			}
			h.a.Flush(h.now)
			h.run(30)
			got := h.payloadsDelivered(h.b)
			if len(got) != 1 || !bytes.Equal(got[0], big) {
				t.Fatalf("32 KiB payload corrupted or lost")
			}
		})
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EventEstablished, EventDelivered, EventAcked, EventNacked,
		EventSendFailed, EventChainLow, EventDropped, EventRekeyed, EventPeerRekeyed,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate event name %q", s)
		}
		seen[s] = true
	}
	if EventKind(99).String() == "" {
		t.Fatalf("unknown kind has empty name")
	}
}

// TestEventKindClasses: every kind is a message kind, Dropped, or one of
// lifecycleKinds, exactly once — so a new kind cannot escape the event
// channel's budget by being forgotten.
func TestEventKindClasses(t *testing.T) {
	class := map[EventKind]int{
		EventDelivered: 1, EventAcked: 1, EventNacked: 1, EventSendFailed: 1,
		EventDropped: 1,
	}
	for _, k := range lifecycleKinds {
		class[k]++
	}
	n := 0
	for k := EventKind(1); !strings.HasPrefix(k.String(), "EventKind("); k++ {
		if class[k] != 1 {
			t.Errorf("%v is in %d classes, want 1", k, class[k])
		}
		n++
	}
	if n != len(class) {
		t.Errorf("%d kinds classified, %d defined", len(class), n)
	}
}

// TestEventSize pins the Event layout: a transport's event channel holds up
// to 256 of them per association, so every byte here is up to 256 bytes per
// session.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 72 {
		t.Fatalf("sizeof(Event) = %d, want <= 72", got)
	}
}

func TestSuiteMismatchDropped(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, false))
	h.handshake()
	// Re-encode an S1 under a different suite ID.
	s1 := &packet.S1{
		Mode: packet.ModeBase, AuthIdx: 1,
		Auth:   make([]byte, suite.SHA256().Size()),
		KeyIdx: 2,
		MACs:   [][]byte{make([]byte, suite.SHA256().Size())},
	}
	raw, err := packet.Encode(packet.Header{
		Type: packet.TypeS1, Suite: suite.IDSHA256,
		Flags: FlagInitiator, Assoc: h.a.Assoc(), Seq: 1,
	}, s1)
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(h.b, raw)
	if d := h.firstDrop(h.b); d == nil {
		t.Fatalf("suite-mismatched packet accepted")
	}
}
