// Receiver half: processing S1/S2 packets, building A1/A2 responses.

package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"alpha/internal/hashchain"
	"alpha/internal/merkle"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/table"
	"alpha/internal/telemetry"
)

// rxExchange is the verifier-side state for one signature exchange: the
// buffered pre-signatures from the S1 (the kernel's Presig) and, in reliable
// mode, the pre-(n)ack material whose secrets will be opened in A2 packets.
// Its size is exactly the "Verifier" column of Tables 2 and 3. It is held in
// the endpoint's verifier table under its sequence number, complete once
// every message is delivered, and keeps every byte in one slab: the copies
// of the S1's element and pre-signatures, the disclosed key, the pre-(n)ack
// secrets, the encoded A1 and the A2s it opens — each A2 once, however often
// a replayed S2 asks for it, so the slab's size is bounded by the shape of
// the exchange and not by what the network sends.
type rxExchange struct {
	table.Entry[uint32, rxExchange]
	slab
	Presig
	reliable bool
	evicted  bool // out of the table; reusable once nothing of the slab is lent

	// Reliable-mode acknowledgment material.
	ackPair hashchain.Pair // our acknowledgment-chain elements
	sack    []byte         // base: secret opened for a positive ack
	snack   []byte         // base: secret opened for a negative ack
	// amt is the AMT this exchange object last built. It survives reuse of
	// the object, so that the next batch rebuilds it in place: ackTree,
	// not amt != nil, says whether this exchange uses it.
	amt *merkle.AckTree

	a1 []byte // encoded A1 for retransmission on duplicate S1
	// a2s holds the encoded A2s of a reliable exchange, the nack of message
	// i at 2i and its ack at 2i+1, nil until first opened: a duplicate or
	// forged S2 gets the stored packet again.
	a2s  [][]byte
	a2s1 [2][]byte // backing for the one-message exchange of base mode
}

// unlend implements lender.
func (rx *rxExchange) unlend(e *Endpoint) {
	if rx.lent--; rx.lent == 0 && rx.evicted {
		e.rx.Recycle(rx)
	}
}

// ackTree returns the AMT this exchange opens its A2s from: a reliable
// exchange of more than one message has one, built by handleS1.
func (rx *rxExchange) ackTree() *merkle.AckTree {
	if rx.reliable && rx.n > 1 {
		return rx.amt
	}
	return nil
}

// ackBytes reports the additional reliable-mode state (Table 3).
func (rx *rxExchange) ackBytes() int {
	n := len(rx.sack) + len(rx.snack)
	if amt := rx.ackTree(); amt != nil {
		// The AMT retains 2n leaf secrets plus the tree nodes
		// (≈ 4n-1 digests counting both subtrees), matching the
		// paper's n·s + (4n-1)·h verifier entry.
		h := len(amt.Root())
		n += 2*amt.Messages()*h + (4*amt.Messages()-1)*h
	}
	return n
}

// newRx takes a receiver exchange off the table's free list, or makes one.
// BufferS1 refills the Presig.
func (e *Endpoint) newRx() *rxExchange {
	if rx := e.rx.Reuse(); rx != nil {
		*rx = rxExchange{slab: rx.slab.reset(), Presig: rx.Presig, a2s: rx.a2s[:0], amt: rx.amt}
		return rx
	}
	rx := &rxExchange{} //alpha:alloc-ok the first MaxRxExchanges exchanges, or a caller that hands nothing back (see Release)
	rx.a2s = rx.a2s1[:0]
	return rx
}

// rxSlabLen is what the slab of a receiver exchange holds once an honest
// exchange announced by s1 has delivered every message: the S1's element
// and pre-signatures, the disclosed key and, in reliable mode, the flat
// pair's secrets, the A1, and an ack per message. Nacks are left out, as no
// honest exchange sends them. So are the acks of messages past this
// endpoint's own batch size: the count is the peer's word, and the acks are
// the part of the reservation a replayed element could inflate beyond what
// the exchange builds anyway.
func (e *Endpoint) rxSlabLen(s1 *packet.S1, reliable bool) int {
	h := e.suite.Size()
	batch, presig := len(s1.MACs), len(s1.MACs)
	switch s1.Mode {
	case packet.ModeM:
		batch, presig = int(s1.LeafCount), 1
	case packet.ModeCM:
		batch, presig = int(s1.LeafCount), len(s1.Roots)
	}
	size := (2 + presig) * h
	switch {
	case !reliable:
		size += packet.A1Len(h, false, false)
	case batch == 1:
		size += 2*h + packet.A1Len(h, true, false) + packet.A2Len(packet.ModeBase, h, 0)
	default:
		acks := min(batch, e.cfg.BatchSize)
		size += packet.A1Len(h, false, true) + acks*packet.A2Len(packet.ModeM, h, merkle.Depth(batch))
	}
	return size
}

// zeroed returns b resized to n zero entries, reusing its capacity.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// grown returns b emptied, with room for n entries.
func grown[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, 0, n)
	}
	return b[:0]
}

// handleS1 verifies a pre-signature announcement and answers with an A1.
//
//alpha:hotpath
func (e *Endpoint) handleS1(now time.Time, hdr packet.Header, s1 *packet.S1) {
	e.tel.RecvS1.Inc()
	if rx, ok := e.rx.Get(hdr.Seq); ok {
		// Duplicate S1 (our A1 was probably lost): resend the stored
		// A1 rather than re-verifying; the paper calls for robust and
		// fast S1/A1 retransmission (§3.5). It must carry the element
		// the exchange verified, which only the signer can have sent.
		if !suite.Equal(rx.auth, s1.Auth) {
			e.drop(hdr.Seq, ErrBadAuthElement)
			return
		}
		if rx.a1 != nil {
			e.queueOut(rx.a1, rx)
			e.tel.Retransmits.Inc()
		}
		return
	}
	if err := e.peer.VerifySig(s1.Auth, s1.AuthIdx, s1.KeyIdx); err != nil {
		e.drop(hdr.Seq, err)
		return
	}
	e.spanKey = obs.Key(s1.Auth)
	e.tracer.Trace(e.tnow, telemetry.TraceS1Recv, e.assoc, hdr.Seq, 0)
	// The S1 is a view of the caller's buffer: everything the exchange
	// keeps of it is copied into the slab. A refused exchange goes straight
	// back to the free list.
	rx := e.newRx()
	reliable := hdr.Flags&packet.FlagReliable != 0
	rx.reserve(e.rxSlabLen(s1, reliable)) //alpha:alloc-ok a fresh exchange, or one larger than this slab has held: one allocation for all it will hold
	if err := rx.BufferS1(&rx.buf, s1); err != nil {
		e.rx.Recycle(rx)
		e.drop(hdr.Seq, err)
		return
	}
	pair, err := e.ackChain.NextPair()
	if err != nil {
		e.rx.Recycle(rx)
		e.drop(hdr.Seq, fmt.Errorf("%w: %v", ErrChainExhausted, err)) //alpha:alloc-ok the chain ran out: once per chain lifetime
		return
	}
	e.noteChainGauges()
	// The acknowledgment chain depletes as fast as the peer sends; warn
	// (and auto-rekey, if configured) from the verifier side too.
	if !e.chainLow && e.ackChainIsLow() {
		e.chainLow = true
		e.emit(Event{Kind: EventChainLow})
	}

	batch := rx.n
	rx.reliable, rx.ackPair = reliable, pair

	a1 := &e.a1
	*a1 = packet.A1{AuthIdx: pair.AuthIdx, Auth: pair.Auth, KeyIdx: pair.KeyIdx}
	if rx.reliable {
		rx.a2s = zeroed(rx.a2s, 2*batch) //alpha:alloc-ok grows to the batch size once per exchange object
		if batch == 1 {
			// Flat pre-ack/pre-nack pair (§3.2.2, Fig. 3).
			h := e.suite.Size()
			secrets := rx.extend(2 * h) //alpha:alloc-ok rxSlabLen reserved these bytes; escape analysis cannot see it
			if _, err := rand.Read(secrets); err != nil {
				e.drop(hdr.Seq, err)
				return
			}
			rx.sack, rx.snack = secrets[:h:h], secrets[h:]
			digests := AppendPreAckDigest(e.suite, e.mac.macOut[:0], pair.Key, rx.sack)
			e.mac.macOut = AppendPreNackDigest(e.suite, digests, pair.Key, rx.snack)
			a1.PreAck, a1.PreNack = e.mac.macOut[:h], e.mac.macOut[h:]
		} else {
			// Acknowledgment Merkle Tree (§3.3.3, Fig. 7), rebuilt in the
			// storage of the one this exchange object last held.
			if rx.amt == nil {
				rx.amt = new(merkle.AckTree) //alpha:alloc-ok the first AMT this exchange object holds
			}
			if err := rx.amt.Build(e.suite, pair.Key, batch); err != nil {
				e.drop(hdr.Seq, err)
				return
			}
			// Room for the openings' proofs, so the first A2 does not
			// grow it by append.
			e.opening.Proof = grown(e.opening.Proof, merkle.Depth(batch)) //alpha:alloc-ok once per endpoint, and per deeper AMT
			a1.AMTRoot = rx.amt.Root()
			a1.AMTLeaves = uint32(batch)
		}
	}
	if rx.a1, err = rx.encode(e.header(packet.TypeA1, hdr.Seq), a1); err != nil {
		e.drop(hdr.Seq, err)
		return
	}
	// Past MaxRxExchanges the table evicts an exchange, the one that
	// completed longest ago if any did, and it goes back to the free list
	// as soon as nothing of its slab is lent out.
	if old := e.rx.Insert(hdr.Seq, rx, MaxRxExchanges); old != nil {
		old.evicted = true
		if old.lent == 0 {
			e.rx.Recycle(old)
		}
	}
	e.queueOut(rx.a1, rx)
	e.tel.SentA1.Inc()
	e.spans.Emit(e.tnow, e.assoc, obs.Key(rx.auth), hdr.Seq, obs.RoleReceiver, obs.StepS1, uint8(rx.mode), obs.VerdictRecv, uint32(batch))
	e.spans.Emit(e.tnow, e.assoc, obs.Key(rx.auth), hdr.Seq, obs.RoleReceiver, obs.StepA1, uint8(rx.mode), obs.VerdictSent, 0)
}

// handleS2 verifies a disclosed message against its buffered pre-signature
// and delivers it; in reliable mode it opens the matching pre-(n)ack.
//
//alpha:hotpath
func (e *Endpoint) handleS2(now time.Time, hdr packet.Header, s2 *packet.S2) {
	e.tel.RecvS2.Inc()
	rx, ok := e.rx.Get(hdr.Seq)
	if !ok {
		e.drop(hdr.Seq, ErrUnsolicited)
		return
	}
	e.spanKey = obs.Key(rx.auth)
	idx := int(s2.MsgIndex)
	if err := rx.VerifyS2(e.suite, &e.mac, &rx.buf, hdr, s2); err != nil {
		// A payload that fails its pre-signature behind a genuine key was
		// tampered with in transit: in reliable mode that is worth a
		// verifiable nack so the signer retransmits.
		if (errors.Is(err, ErrBadMAC) || errors.Is(err, ErrBadProof)) && rx.reliable && !rx.Done(idx) {
			e.sendA2(rx, idx, false)
		}
		e.drop(hdr.Seq, err)
		return
	}
	if rx.Done(idx) {
		// Duplicate S2 (our A2 was probably lost): re-open the ack.
		if rx.reliable {
			e.sendA2(rx, idx, true)
		}
		return
	}
	// In-band rekey announcements are consumed by the protocol layer:
	// the payload carries the peer's fresh anchors, already authenticated
	// by the old chain like any other message.
	p, rekey := DecodeRekey(s2.Payload, e.suite.Size()) //alpha:alloc-ok rekey happens once per chain lifetime
	if rekey {
		if err := e.peer.AdoptRekey(e.suite, p); err != nil { //alpha:alloc-ok rekey happens once per chain lifetime
			e.drop(hdr.Seq, err)
			return
		}
	}
	if rx.MarkDone(idx) {
		e.rx.Complete(rx)
	}
	if rekey {
		e.emit(Event{Kind: EventPeerRekeyed, Seq: hdr.Seq, MsgIndex: s2.MsgIndex})
		if rx.reliable {
			e.sendA2(rx, idx, true)
		}
		return
	}
	e.tel.Delivered.Inc()
	e.tel.PayloadBytes.Add(uint64(len(s2.Payload)))
	e.tel.PayloadSize.Observe(int64(len(s2.Payload)))
	e.tracer.Trace(e.tnow, telemetry.TraceS2Verified, e.assoc, hdr.Seq, s2.MsgIndex)
	e.spans.Emit(e.tnow, e.assoc, obs.Key(rx.auth), hdr.Seq, obs.RoleReceiver, obs.StepS2, uint8(rx.mode), obs.VerdictDeliver, s2.MsgIndex)
	// The S2 is a view of the caller's buffer; the application gets a copy
	// it owns. This is the data path's one allocation per message.
	payload := append([]byte(nil), s2.Payload...) //alpha:alloc-ok Event.Payload is the application's own copy
	e.emit(Event{Kind: EventDelivered, Seq: hdr.Seq, MsgIndex: s2.MsgIndex, Payload: payload})
	if rx.reliable {
		e.sendA2(rx, idx, true)
	}
}

// sendA2 opens the pre-ack (ack=true) or pre-nack for message idx, or sends
// the stored A2 again if the exchange has opened it before.
func (e *Endpoint) sendA2(rx *rxExchange, idx int, ack bool) {
	slot := 2 * idx
	if ack {
		slot++
	}
	if rx.a2s[slot] == nil {
		raw, ok := e.openA2(rx, idx, ack)
		if !ok {
			return
		}
		rx.a2s[slot] = raw
	}
	e.queueOut(rx.a2s[slot], rx)
	e.tel.SentA2.Inc()
	e.spans.Emit(e.tnow, e.assoc, obs.Key(rx.auth), rx.Key(), obs.RoleReceiver, obs.StepA2, uint8(rx.mode), obs.VerdictSent, uint32(idx))
}

// openA2 encodes the A2 for message idx into the exchange's slab. It reports
// false, with the failure accounted, if the ack could not be opened.
func (e *Endpoint) openA2(rx *rxExchange, idx int, ack bool) ([]byte, bool) {
	a2 := &e.a2
	*a2 = packet.A2{
		Mode:     packet.ModeBase,
		KeyIdx:   rx.ackPair.KeyIdx,
		Key:      rx.ackPair.Key,
		MsgIndex: uint32(idx),
		Ack:      ack,
	}
	if amt := rx.ackTree(); amt != nil {
		o := &e.opening
		if err := amt.OpenInto(o, idx, ack); err != nil {
			// An unopenable acknowledgment is an internal-state error, not
			// hostile input, but it must not vanish silently: the peer will
			// retransmit the S2 and land on the duplicate-delivery path.
			e.noteAckFailure(rx, telemetry.ReasonBadAck)
			return nil, false
		}
		// The AMT is also used for multi-message ALPHA-C batches; its
		// opening travels in mode-M A2 framing.
		a2.Mode = packet.ModeM
		a2.Secret = o.Secret
		a2.Proof = o.Proof
		a2.Other = o.Other
		a2.AMTLeaves = uint32(amt.Messages())
	} else if ack {
		a2.Secret = rx.sack
	} else {
		a2.Secret = rx.snack
	}
	raw, err := rx.encode(e.header(packet.TypeA2, rx.Key()), a2)
	if err != nil {
		// Encoding failure: the ack this exchange owes never left. Counted
		// for the same reason as above.
		e.noteAckFailure(rx, telemetry.ReasonMalformed)
		return nil, false
	}
	return raw, true
}

// noteAckFailure accounts a failed A2 emission: previously a silent return,
// now a reason-coded drop plus a trace line and a drop-verdict span, so the
// I3/I4 conservation invariants see every discarded acknowledgment.
func (e *Endpoint) noteAckFailure(rx *rxExchange, code uint32) {
	e.tel.NoteDrop(code)
	e.tracer.Trace(e.tnow, telemetry.TraceDrop, e.assoc, rx.Key(), code)
	e.spans.Emit(e.tnow, e.assoc, obs.Key(rx.auth), rx.Key(), obs.RoleReceiver, obs.StepA2, uint8(rx.mode), obs.VerdictDrop, code)
}
