package attack

import (
	"testing"
	"time"

	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/netsim"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

func admissionKey(b byte) admission.Key {
	var k admission.Key
	for i := range k {
		k[i] = b
	}
	return k
}

// floodRun builds s - gate - v with a bandwidth-limited gate->v hop, runs a
// fixed send schedule from s, and optionally aims an HS1 flood at v at ten
// times the legitimate packet rate. It returns the number of payloads v
// actually delivered in the window (the goodput figure the admission tier
// must keep flat) plus the gate for drop accounting.
func floodRun(t *testing.T, flood, admit bool) (goodput int, gate *netsim.AdmissionGate) {
	t.Helper()
	n := netsim.New(77)

	key := admissionKey(0x6C)
	issuer, err := admission.NewIssuer(1, key)
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := admission.NewVerifier(admission.VerifierConfig{
		Require: admit,
		Keys:    map[uint8]admission.Key{1: key},
		Window:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.Config{Mode: packet.ModeBase, ChainLen: 256, RTO: 50 * time.Millisecond, FlushDelay: -1}
	dialCfg := cfg
	ip, port := netsim.SimAddr("s")
	dialCfg.TokenSource = func(sig, ack []byte) ([]byte, error) {
		return issuer.Mint(n.Now(), time.Minute, ip, port, sig, ack)
	}
	epS, err := core.NewEndpoint(dialCfg)
	if err != nil {
		t.Fatal(err)
	}
	epV, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := netsim.NewEndpointNode(n, "s", "v", epS)
	v := netsim.NewEndpointNode(n, "v", "s", epV)
	gate = netsim.NewAdmissionGate(n, "gate", verifier)

	n.AddDuplexLink("s", "gate", netsim.LinkConfig{Latency: time.Millisecond})
	// The victim-side hop is the scarce resource: enough for legitimate
	// traffic with headroom, nowhere near enough for a 10x flood.
	n.AddDuplexLink("gate", "v", netsim.LinkConfig{Latency: time.Millisecond, Bandwidth: 256_000})
	if flood {
		mal := NewHSFloodNode(n, "mallory", "v", HSTokenless)
		n.AddLink("mallory", "gate", netsim.LinkConfig{Latency: time.Millisecond})
		n.AddLink("gate", "mallory", netsim.LinkConfig{Latency: time.Millisecond})
		// Legitimate load below is ~100 gate->v packets over 2s; 10x that.
		mal.FloodFor(n, n.Now().Add(100*time.Millisecond), 2*time.Second, 2000)
	}
	n.AutoRoute()

	if err := s.Start(n.Now()); err != nil {
		t.Fatal(err)
	}
	n.RunFor(500 * time.Millisecond)
	if !epS.Established() {
		t.Fatal("handshake failed")
	}

	const sends = 50
	start := n.Now()
	for i := 0; i < sends; i++ {
		at := start.Add(time.Duration(i) * 40 * time.Millisecond)
		payload := []byte{byte(i)}
		n.Schedule(at, func(now time.Time) {
			if _, err := s.Send(now, payload); err != nil {
				return
			}
			s.Flush(now)
		})
	}
	n.RunFor(2*time.Second + 500*time.Millisecond)
	return len(v.DeliveredPayloads()), gate
}

func TestHSFloodGoodputFlatUnderAdmission(t *testing.T) {
	baseline, _ := floodRun(t, false, true)
	if baseline < 40 {
		t.Fatalf("baseline goodput %d too low for a meaningful flood comparison", baseline)
	}
	flooded, gate := floodRun(t, true, true)
	if gate.Rejected == 0 {
		t.Fatal("flood never reached the admission gate")
	}
	// The acceptance bar: legitimate goodput stays flat (within 10%) while
	// the victim is under a 10x token-less HS1 flood.
	low := baseline * 9 / 10
	if flooded < low {
		t.Fatalf("goodput degraded under flood: baseline=%d flooded=%d (floor %d)", baseline, flooded, low)
	}
	t.Logf("goodput baseline=%d flooded=%d rejected=%d", baseline, flooded, gate.Rejected)
}

func TestHSFloodCollapsesWithoutAdmission(t *testing.T) {
	// Control experiment: with the verifier waving token-less HS1s through
	// (Require=false), the same flood saturates the victim-side hop and
	// goodput craters. This is the damage the tentpole exists to prevent.
	baseline, _ := floodRun(t, false, true)
	open, _ := floodRun(t, true, false)
	if open >= baseline*9/10 {
		t.Fatalf("flood had no effect without admission (baseline=%d open=%d); the goodput-flat test proves nothing", baseline, open)
	}
	t.Logf("goodput baseline=%d without-admission=%d", baseline, open)
}

func TestHSFloodModesAllAccounted(t *testing.T) {
	n := netsim.New(31)
	key := admissionKey(0x2D)
	issuer, err := admission.NewIssuer(4, key)
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := admission.NewVerifier(admission.VerifierConfig{
		Require: true,
		Keys:    map[uint8]admission.Key{4: key},
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := netsim.NewAdmissionGate(n, "gate", verifier)
	victimHS1 := 0
	n.AddNode("v", netsim.HandlerFunc(func(_ *netsim.Network, _ time.Time, pkt netsim.Packet) {
		if len(pkt.Data) > 3 && packet.Type(pkt.Data[3]) == packet.TypeHS1 {
			victimHS1++
		}
	}))

	link := netsim.LinkConfig{Latency: time.Millisecond}
	none := NewHSFloodNode(n, "mal-none", "v", HSTokenless)
	forge := NewHSFloodNode(n, "mal-forge", "v", HSForgedToken)
	replay := NewHSFloodNode(n, "mal-replay", "v", HSReplayedToken)
	// The replayed token really is valid for the replaying node's address:
	// only the replay filter stands between it and admission.
	rip, rport := netsim.SimAddr("mal-replay")
	tok, err := issuer.Mint(n.Now(), time.Hour, rip, rport, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	replay.Token = tok
	for _, name := range []string{"mal-none", "mal-forge", "mal-replay"} {
		n.AddLink(name, "gate", link)
	}
	n.AddDuplexLink("gate", "v", link)
	n.AutoRoute()

	const each = 100
	none.FloodFor(n, n.Now(), time.Second, each)
	forge.FloodFor(n, n.Now(), time.Second, each)
	replay.FloodFor(n, n.Now(), time.Second, each)
	n.RunFor(2 * time.Second)

	m := verifier.Metrics()
	if got := m.DropReasons[telemetry.ReasonAdmissionMissing].Load(); got != each {
		t.Fatalf("drop_admission_missing = %d, want %d", got, each)
	}
	if got := m.DropReasons[telemetry.ReasonAdmissionInvalid].Load(); got != each {
		t.Fatalf("drop_admission_invalid = %d, want %d", got, each)
	}
	// The first replayed HS1 legitimately admits (valid token, right
	// address, first use); every later copy is a replay.
	if got := m.DropReasons[telemetry.ReasonAdmissionReplayed].Load(); got != each-1 {
		t.Fatalf("drop_admission_replayed = %d, want %d", got, each-1)
	}
	if gate.Admitted != 1 || victimHS1 != 1 {
		t.Fatalf("admitted %d, victim saw %d HS1s; want exactly the first replay", gate.Admitted, victimHS1)
	}
	// I3: the aggregate equals the sum of the per-reason counters, exactly.
	var sum uint64
	for i := range m.DropReasons {
		sum += m.DropReasons[i].Load()
	}
	if got := m.Dropped.Load(); got != sum {
		t.Fatalf("dropped=%d but per-reason sum=%d", got, sum)
	}
}
