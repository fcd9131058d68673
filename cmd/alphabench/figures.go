// Figure experiments: Fig. 3 (pre-(n)ack trace), Fig. 5 and 6 (ALPHA-M
// payload and overhead curves), and the §4.1.3 WSN estimate.

package main

import (
	"bytes"
	"fmt"

	"alpha/internal/analytic"
	"alpha/internal/core"
	"alpha/internal/merkle"
	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/stats"
	"alpha/internal/suite"
)

// fig5Sizes are the four packet budgets of Figures 5 and 6: total packet
// sizes a)-d), including the minimum IPv6 MTU.
var fig5Sizes = []int{1280, 512, 256, 128}

// runFig5 prints the signed-bytes-per-S1 series and cross-checks the
// analytic per-packet overhead against real encoded S2 packets.
func runFig5() error {
	const sh = 20
	t := &stats.Table{
		Title:   "Figure 5 — signed bytes per S1 pre-signature (20 B hash)",
		Headers: []string{"packets n", "1280 B", "512 B", "256 B", "128 B"},
	}
	for n := 1; n <= 1<<24; n *= 4 {
		row := []interface{}{n}
		for _, sp := range fig5Sizes {
			row = append(row, stats.Bytes(analytic.STotal(n, sp, sh)))
		}
		t.Add(row...)
	}
	t.Note("Shape to compare with the paper's Fig. 5: near-linear growth in n with")
	t.Note("see-saw dips whenever the Merkle tree gains a level; larger packets")
	t.Note("always dominate, and small packets hit zero when the proof alone")
	t.Note("exceeds the packet (128 B supports trees only up to ~2^4 leaves).")
	fmt.Print(t)

	// Empirical cross-check of the per-packet model against real encoded
	// ALPHA-M S2 packets.
	fmt.Println("\ncross-check of per-packet signature overhead vs real S2 encoding:")
	ct := &stats.Table{
		Headers: []string{"leaves", "model overhead (B)", "encoded overhead (B)"},
	}
	for _, n := range []int{2, 16, 256, 1024} {
		enc, err := realS2Overhead(n)
		if err != nil {
			return err
		}
		model := sh * (analytic.Ceil2Log(n) + 1)
		ct.Add(n, model, enc)
	}
	ct.Note("Encoded overhead adds the fixed wire header and field framing on top")
	ct.Note("of the paper's pure hash-data model; the per-level +20 B step matches.")
	fmt.Print(ct)
	return nil
}

// realS2Overhead builds a real ALPHA-M exchange of n one-byte messages and
// reports the S2 wire overhead (encoded size minus payload size).
func realS2Overhead(n int) (int, error) {
	cfg := core.Config{Mode: packet.ModeM, ChainLen: 8, BatchSize: n, FlushDelay: -1}
	d, err := newDriver(cfg, cfg, nil)
	if err != nil {
		return 0, err
	}
	const payloadSize = 64
	for i := 0; i < n; i++ {
		if _, err := d.a.Send(d.Now, bytes.Repeat([]byte{1}, payloadSize)); err != nil {
			return 0, err
		}
	}
	d.a.Flush(d.Now)
	var s2s [][]byte
	d.Tap = path.Hold(packet.TypeS2, 0, &s2s)
	if err := d.Settle(8); err != nil {
		return 0, err
	}
	if len(s2s) != n {
		return 0, fmt.Errorf("got %d S2 packets, want %d", len(s2s), n)
	}
	return len(s2s[0]) - payloadSize, nil
}

// runFig6 prints the transferred-bytes-per-signed-byte ratio series.
func runFig6() error {
	const sh = 20
	t := &stats.Table{
		Title:   "Figure 6 — transferred bytes per signed byte (20 B hash)",
		Headers: []string{"packets n", "1280 B", "512 B", "256 B", "128 B"},
	}
	fmtRatio := func(r float64) string {
		if r > 1e6 {
			return "∞"
		}
		return fmt.Sprintf("%.3f", r)
	}
	for n := 1; n <= 1<<24; n *= 4 {
		row := []interface{}{n}
		for _, sp := range fig5Sizes {
			row = append(row, fmtRatio(analytic.OverheadRatio(n, sp, sh)))
		}
		t.Add(row...)
	}
	t.Note("Shape: the ratio steps up with every tree level; small packets pay")
	t.Note("disproportionally (128 B packets cross 2x early, 1280 B stays below")
	t.Note("1.5x beyond 10^6 packets) — matching the a)-d) ordering of Fig. 6.")
	fmt.Print(t)
	return nil
}

// runFig3 prints an annotated trace of one reliable exchange, reproducing
// the message sequence of Figure 3 from a live run.
func runFig3() error {
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 8, FlushDelay: -1}
	d, err := newDriver(cfg, cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3 — reliable exchange trace (live run)")
	fmt.Println()
	dir := [2]string{path.A: "Signer → Verifier", path.B: "Verifier → Signer"}
	d.Tap = func(from path.Side, _ int, raw []byte) [][]byte {
		if hdr, msg, err := packet.Decode(raw); err == nil {
			desc := ""
			switch m := msg.(type) {
			case *packet.S1:
				desc = fmt.Sprintf("h^Ss[%d], MAC(h^Ss[%d]|m)", m.AuthIdx, m.KeyIdx)
			case *packet.A1:
				desc = fmt.Sprintf("h^Va[%d], H(h^Va[%d]|1|s_ack), H(h^Va[%d]|0|s_nack)", m.AuthIdx, m.KeyIdx, m.KeyIdx)
			case *packet.S2:
				desc = fmt.Sprintf("h^Ss[%d], m (%d B)", m.KeyIdx, len(m.Payload))
			case *packet.A2:
				flag := "1, s_ack"
				if !m.Ack {
					flag = "0, s_nack"
				}
				desc = fmt.Sprintf("h^Va[%d], [%s]", m.KeyIdx, flag)
			}
			fmt.Printf("  %-18s %-4s seq=%d  %s  (%d bytes)\n", dir[from], hdr.Type, hdr.Seq, desc, len(raw))
		}
		return [][]byte{raw}
	}
	if _, err := d.a.Send(d.Now, []byte("signed and acknowledged")); err != nil {
		return err
	}
	d.a.Flush(d.Now)
	if err := d.Settle(8); err != nil {
		return err
	}
	fmt.Printf("\n  4 packets total (vs 6 for a naive signed ack); signer saw verifiable ack: %v\n", d.a.Stats().Acked == 1)
	return nil
}

// runWSN reproduces the §4.1.3 estimation with measured MMO costs.
func runWSN() error {
	s := suite.MMO()
	small := bytes.Repeat([]byte{0x11}, 2*s.Size())
	pkt := bytes.Repeat([]byte{0x22}, 100)
	fixed, full := hashDelay(s, small), macDelay(s, small[:16], pkt)
	t := &stats.Table{
		Title: fmt.Sprintf("§4.1.3 — WSN estimate (MMO-AES128, measured: %s fixed / %s per 100 B MAC)",
			stats.Ns(fixed), stats.Ns(full)),
		Headers: []string{"Configuration", "payload/packet", "verifiable throughput", "vs 250 Kbit/s radio"},
	}
	for _, withAcks := range []bool{false, true} {
		est := analytic.WSN(100, s.Size(), 5, fixed, full, withAcks)
		name := "ALPHA-C, 5 pre-sigs"
		if withAcks {
			name += " + pre-acks"
		}
		kbps := est.VerifiableKbps
		cap := ""
		if kbps >= 250 {
			cap = "CPU not the bottleneck (radio-limited)"
		} else {
			cap = fmt.Sprintf("%.0f%% of radio rate", kbps/250*100)
		}
		t.Add(name, fmt.Sprintf("%d B", est.PayloadPerPacket), stats.Rate(kbps*1000), cap)
	}
	t.Note("Paper (16 MHz CC2430 with AES hardware): 244 Kbit/s without and")
	t.Note("156.56 Kbit/s with pre-acks — i.e. hop-by-hop verification runs at or")
	t.Note("near radio line rate. On this host the MMO hash is far faster, so the")
	t.Note("CPU ceiling sits far above the 250 Kbit/s radio; the qualitative")
	t.Note("conclusion (relay verification is not the bottleneck) is preserved,")
	t.Note("and pre-acks cost roughly the same relative overhead.")
	fmt.Print(t)

	// Also show the AMT arithmetic of Fig. 7 holding together at n=8.
	key := s.Hash([]byte("hVa"))
	amt, err := merkle.NewAckTree(s, key, 8)
	if err != nil {
		return err
	}
	o, err := amt.Open(3, true)
	if err != nil {
		return err
	}
	fmt.Printf("\nFig. 7 AMT sanity: 8-message tree, opening (msg 3, ack) verifies: %v\n",
		merkle.VerifyOpening(s, key, amt.Root(), 8, o))
	return nil
}
