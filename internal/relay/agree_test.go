package relay

import (
	"fmt"
	"testing"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// dropSample names the drop-reason counters that moved between before and
// after, "" when none did.
func dropSample(before []uint64, after []telemetry.Counter) string {
	name := ""
	for code := range after {
		if after[code].Load() != before[code] {
			name += telemetry.DropSample(uint32(code))
		}
	}
	return name
}

func loads(cs []telemetry.Counter) []uint64 {
	out := make([]uint64, len(cs))
	for i := range cs {
		out[i] = cs[i].Load()
	}
	return out
}

// mutate decodes raw, lets f edit the header and body, and encodes it again.
func mutate[M packet.Message](t *testing.T, raw []byte, f func(*packet.Header, M)) []byte {
	t.Helper()
	hdr, msg, err := packet.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	f(&hdr, msg.(M))
	out, err := packet.Encode(hdr, msg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRelayAgreesWithEndpoint holds a relay to the verdict of the endpoint
// that verifies the same packet: the verifier for an S2, the signer for an
// A2. Each mutated packet goes to both, and the relay must forward exactly
// what the endpoint accepts and count every refusal under the endpoint's
// drop sample. Hop-by-hop authentication is only as strong as the promise
// that every hop runs the same check.
func TestRelayAgreesWithEndpoint(t *testing.T) {
	for _, mc := range []struct {
		name string
		cfg  core.Config
	}{
		{"base", core.Config{Mode: packet.ModeBase, Reliable: true}},
		{"C-16", core.Config{Mode: packet.ModeC, BatchSize: 16, Reliable: true}},
		{"M-16", core.Config{Mode: packet.ModeM, BatchSize: 16, Reliable: true}},
		{"CM-16", core.Config{Mode: packet.ModeCM, BatchSize: 16, CMRoots: 4, Reliable: true}},
	} {
		t.Run(mc.name, func(t *testing.T) {
			cfg := mc.cfg
			cfg.ChainLen, cfg.FlushDelay = 64, -1
			p := newPair(t, cfg, Config{})
			n := max(cfg.BatchSize, 1)
			merkleMode := cfg.Mode == packet.ModeM || cfg.Mode == packet.ModeCM

			// agree feeds raw to the relay and to dst, the endpoint that
			// verifies it, and compares their verdicts; want is what the row
			// must get, so a mutation that changes nothing is caught too.
			agree := func(row string, want Verdict, upstream int, dst *core.Endpoint, raw []byte) {
				t.Helper()
				relayBefore := loads(p.r.Telemetry().DropReasons[:])
				endpointBefore := loads(dst.Telemetry().DropReasons[:])
				d := p.r.ProcessFrom(p.Now, upstream, raw)
				evs, err := dst.Handle(p.Now, raw)
				if err != nil {
					t.Fatal(err)
				}
				accepted := true
				for _, ev := range evs {
					accepted = accepted && ev.Kind != core.EventDropped
				}
				relayDrop := dropSample(relayBefore, p.r.Telemetry().DropReasons[:])
				endpointDrop := dropSample(endpointBefore, dst.Telemetry().DropReasons[:])
				if (d.Verdict == Forward) != accepted || relayDrop != endpointDrop {
					t.Errorf("%s: relay %v %q, endpoint accepted=%v %q", row, d.Verdict, relayDrop, accepted, endpointDrop)
				}
				if d.Verdict != want {
					t.Errorf("%s: relay %v, want %v", row, d.Verdict, want)
				}
			}

			// open runs an exchange of n messages up to its S2s: the relay and
			// both endpoints hold its S1 and A1.
			open := func() [][]byte {
				for i := 0; i < n; i++ {
					if _, err := p.a.Send(p.Now, []byte{byte(i), 'm'}); err != nil {
						t.Fatal(err)
					}
				}
				return p.upTo(packet.TypeS2)
			}
			first, second := open(), open()
			if len(first) != n || len(second) != n {
				t.Fatalf("exchanges opened with %d and %d S2s, want %d", len(first), len(second), n)
			}
			hdr2, _, err := packet.Decode(second[0])
			if err != nil {
				t.Fatal(err)
			}

			type s2Row struct {
				name  string
				apply bool
				edit  func(*packet.Header, *packet.S2)
			}
			for _, row := range []s2Row{
				{"S2 payload byte", true, func(_ *packet.Header, s *packet.S2) { s.Payload[0] ^= 1 }},
				{"S2 key byte", true, func(_ *packet.Header, s *packet.S2) { s.Key[0] ^= 1 }},
				{"S2 key index", true, func(_ *packet.Header, s *packet.S2) { s.KeyIdx += 2 }},
				{"S2 message index past the batch", true, func(_ *packet.Header, s *packet.S2) { s.MsgIndex = uint32(n) }},
				{"S2 leaf count", merkleMode, func(_ *packet.Header, s *packet.S2) { s.LeafCount++ }},
				{"S2 proof digest", merkleMode, func(_ *packet.Header, s *packet.S2) { s.Proof[0][0] ^= 1 }},
				{"S2 replayed into another exchange", true, func(h *packet.Header, _ *packet.S2) { h.Seq = hdr2.Seq }},
			} {
				if row.apply {
					agree(row.name, Drop, 0, p.b, mutate(t, first[0], row.edit))
				}
			}
			p.b.Poll(p.Now) // the nacks the tampered payloads earned
			for x, s2s := range [][][]byte{first, second} {
				for i, raw := range s2s {
					agree(fmt.Sprintf("honest S2 %d/%d", x, i), Forward, 0, p.b, raw)
				}
			}
			// The last honest S2 left both verified-path memos on its path,
			// and a refused packet does not move them: each row below meets
			// that path at the leaf level, on the delivered sibling (so the
			// verifier owes it no nack), and must fail on what the memo
			// compares instead of hashing.
			if merkleMode {
				var foreign []byte
				mutate(t, first[0], func(_ *packet.Header, s *packet.S2) { foreign = s.Key })
				for _, row := range []s2Row{
					{"S2 proof digest above the meeting level, warm memo", true, func(_ *packet.Header, s *packet.S2) { s.Proof[len(s.Proof)-1][0] ^= 1 }},
					{"S2 key of another exchange, warm memo", true, func(_ *packet.Header, s *packet.S2) { s.Key = foreign }},
				} {
					agree(row.name, Drop, 0, p.b, mutate(t, second[n-2], row.edit))
				}
			}

			a2s, _ := p.b.Poll(p.Now)
			if len(a2s) != 2*n {
				t.Fatalf("verifier sent %d A2s, want %d", len(a2s), 2*n)
			}
			type a2Row struct {
				name  string
				apply bool
				edit  func(*packet.Header, *packet.A2)
			}
			for _, row := range []a2Row{
				{"A2 secret", true, func(_ *packet.Header, a *packet.A2) { a.Secret[0] ^= 1 }},
				{"A2 key byte", true, func(_ *packet.Header, a *packet.A2) { a.Key[0] ^= 1 }},
				{"A2 key index", true, func(_ *packet.Header, a *packet.A2) { a.KeyIdx += 2 }},
				{"A2 message index", true, func(_ *packet.Header, a *packet.A2) { a.MsgIndex = uint32(n) }},
				{"A2 AMT proof", n > 1, func(_ *packet.Header, a *packet.A2) { a.Proof[0][0] ^= 1 }},
			} {
				if row.apply {
					agree(row.name, Drop, 1, p.a, mutate(t, a2s[0], row.edit))
				}
			}
			last := len(a2s) - 1
			for i, raw := range a2s[:last] {
				agree(fmt.Sprintf("honest A2 %d", i), Forward, 1, p.a, raw)
			}
			// As for the S2s: the memos hold the path of the ack before the
			// last, and the last is tampered with where the memo compares.
			if n > 1 {
				var foreign []byte
				mutate(t, a2s[0], func(_ *packet.Header, a *packet.A2) { foreign = a.Key })
				for _, row := range []a2Row{
					{"A2 AMT proof above the meeting level, warm memo", true, func(_ *packet.Header, a *packet.A2) { a.Proof[len(a.Proof)-1][0] ^= 1 }},
					{"A2 other subtree root, warm memo", true, func(_ *packet.Header, a *packet.A2) { a.Other[0] ^= 1 }},
					{"A2 key of another exchange, warm memo", true, func(_ *packet.Header, a *packet.A2) { a.Key = foreign }},
				} {
					agree(row.name, Drop, 1, p.a, mutate(t, a2s[last], row.edit))
				}
			}
			agree(fmt.Sprintf("honest A2 %d", last), Forward, 1, p.a, a2s[last])
			if st := p.a.Stats(); st.Acked != uint64(2*n) {
				t.Fatalf("signer acked %d of %d messages", st.Acked, 2*n)
			}
		})
	}
}
