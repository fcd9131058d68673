// Sender half: queuing messages, building S1/S2 packets, processing A1/A2.

package core

import (
	"errors"
	"fmt"
	"time"

	"alpha/internal/hashchain"
	"alpha/internal/merkle"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/table"
	"alpha/internal/telemetry"
)

// outMsg is a queued outgoing message. Its payload is the endpoint's own
// copy, in a buffer that returns to freePayloads when the message's exchange
// retires.
type outMsg struct {
	id      uint64
	payload []byte
	sentAt  time.Time // when Send accepted it; basis for ack latency
}

// txState is the sender-side exchange state machine.
type txState int

const (
	txAwaitA1 txState = iota // S1 sent, waiting for the acknowledgment
	txAwaitA2                // S2s sent, waiting for (n)acks (reliable)
	txDone
)

// txExchange tracks one in-flight signature exchange (one S1/A1 round plus
// its S2 payload packets), held in the endpoint's signer table under its
// sequence number; its marks are the acknowledged messages. Exchanges come
// from the table's free list and own one slab each (see slab): the encoded
// S1, the pre-(n)ack material copied out of the A1, and the encoded S2s live
// there, so a reused exchange signs, retransmits and retires without
// allocating.
type txExchange struct {
	table.Entry[uint32, txExchange]
	slab
	marks
	state txState
	// mode is pinned at startExchange: an exchange runs its whole lifetime
	// under the profile it was created with, so a runtime SetProfile never
	// mixes modes within one S1/S2 round (the S2s must match what the S1
	// announced).
	mode packet.Mode
	msgs []outMsg
	pair hashchain.Pair // our signature-chain elements for this exchange
	// trees holds mode M's one tree or CM's k subtrees. A reused exchange
	// rebuilds them in the storage they already have.
	trees []merkle.Tree

	s1  []byte   // encoded S1 for retransmission
	s2s [][]byte // encoded S2 packets, indexed by message

	// Acknowledgment material learned from the A1 (reliable mode).
	AckPresig

	retries  int
	deadline time.Time

	// Backing for the one-message exchange of base mode, so that a fresh
	// exchange is one allocation, not three.
	msg1 [1]outMsg
	s2s1 [1][]byte
}

// unlend implements lender.
func (x *txExchange) unlend(e *Endpoint) {
	if x.lent--; x.lent == 0 && x.state == txDone {
		e.tx.Recycle(x)
	}
}

// newTx takes a sender exchange off the table's free list, or makes one.
func (e *Endpoint) newTx() *txExchange {
	if x := e.tx.Reuse(); x != nil {
		*x = txExchange{slab: x.slab.reset(), marks: x.marks, msgs: x.msgs[:0], trees: x.trees[:0], s2s: x.s2s[:0]}
		return x
	}
	x := &txExchange{} //alpha:alloc-ok first exchanges, or a caller that hands nothing back (see Release)
	x.msgs, x.s2s = x.msg1[:0], x.s2s1[:0]
	return x
}

// txSlabLen is what x's slab holds by the time x retires: its S1 with
// digests pre-signatures, in reliable mode the A1's element and pre-(n)ack
// material, and an S2 per message. The trees of the Merkle modes are built,
// so their proof depths are known.
func (e *Endpoint) txSlabLen(x *txExchange, digests int) int {
	h, n := e.suite.Size(), len(x.msgs)
	size := packet.S1Len(x.mode, h, digests)
	if e.cfg.Reliable {
		material := h // an AMT root
		if n == 1 {
			material = 2 * h // a pre-ack and a pre-nack
		}
		size += h + material
	}
	for i := range x.msgs {
		depth := 0
		if root, _, _, ok := CMLocate(i, n, len(x.trees)); ok {
			depth = x.trees[root].ProofDepth()
		}
		size += packet.S2Len(x.mode, h, depth, len(x.msgs[i].payload))
	}
	return size
}

// Send queues payload for integrity-protected transmission and returns a
// message ID that Acked/Nacked/SendFailed events will reference. Messages
// are batched per the configured mode; Poll (or Flush) turns full or
// lingering batches into signature exchanges. The payload is copied, once:
// the caller may reuse it as soon as Send returns.
//
//alpha:hotpath
func (e *Endpoint) Send(now time.Time, payload []byte) (uint64, error) {
	if !e.established {
		return 0, ErrNotEstablished
	}
	if len(payload) > packet.MaxPayload {
		return 0, fmt.Errorf("core: payload of %d bytes exceeds %d", len(payload), packet.MaxPayload) //alpha:alloc-ok caller error
	}
	e.tnow = now.UnixNano()
	e.nextMsgID++
	id := e.nextMsgID
	if e.QueueLen() == 0 {
		e.queuedAt = now
	}
	if e.qhead > 0 && len(e.queue) == cap(e.queue) {
		// Close the gap the dequeued messages left instead of growing.
		e.queue = e.queue[:copy(e.queue, e.queue[e.qhead:])]
		e.qhead = 0
	}
	if e.queue == nil {
		e.queue = make([]outMsg, 0, e.cfg.BatchSize) //alpha:alloc-ok the first Send: room for a batch
	}
	var buf []byte
	if n := len(e.freePayloads); n > 0 {
		buf, e.freePayloads = e.freePayloads[n-1][:0], e.freePayloads[:n-1]
	}
	buf = append(buf, payload...) //alpha:alloc-ok the payload copy: its buffer is reused once the exchange retires
	e.queue = append(e.queue, outMsg{id: id, payload: buf, sentAt: now})
	e.flushQueue(now, false)
	return id, nil
}

// Flush forces any partially filled batch into an exchange immediately.
func (e *Endpoint) Flush(now time.Time) {
	e.tnow = now.UnixNano()
	e.flushQueue(now, true)
}

// QueueLen returns the number of messages waiting for a batch slot.
func (e *Endpoint) QueueLen() int { return len(e.queue) - e.qhead }

// InFlight returns the number of open signature exchanges.
func (e *Endpoint) InFlight() int { return e.tx.Len() }

// MaxOutstanding returns the bound on open signature exchanges, with the
// default applied.
func (e *Endpoint) MaxOutstanding() int { return e.cfg.MaxOutstanding }

// flushQueue starts exchanges for queued messages. Unless force is set,
// a partial batch is only flushed after FlushDelay has elapsed. While a
// rekey announcement is in flight no new exchanges start: serializing the
// generation change means verifiers and relays never see two chain
// generations interleaved, which keeps their grace-window logic trivial.
func (e *Endpoint) flushQueue(now time.Time, force bool) {
	if e.rekey != nil {
		return
	}
	for e.QueueLen() > 0 && e.tx.Len() < e.cfg.MaxOutstanding {
		// Under AutoRekey, the final chain pair is reserved for signing
		// the rekey announcement itself; queued messages wait out the
		// rotation instead of exhausting the chain.
		if e.cfg.AutoRekey && e.cfg.Reliable && e.sigChain.Remaining() < 4 {
			return
		}
		if e.QueueLen() < e.cfg.BatchSize && !force {
			if e.cfg.FlushDelay < 0 || now.Sub(e.queuedAt) < e.cfg.FlushDelay {
				return
			}
		}
		n := min(e.QueueLen(), e.cfg.BatchSize)
		batch := e.queue[e.qhead : e.qhead+n]
		if e.qhead += n; e.QueueLen() > 0 {
			e.queuedAt = now
		} else {
			// Drained: rewind. batch stays intact until the next Send,
			// and startExchange copies it first.
			e.queue, e.qhead = e.queue[:0], 0
		}
		if err := e.startExchange(now, batch); err != nil {
			for _, m := range batch {
				e.emit(Event{Kind: EventSendFailed, MsgID: m.id, Err: err})
				e.abortRekey(m.id)
			}
		}
	}
}

// startExchange consumes a signature-chain pair and emits the S1 for a
// batch of messages. The batch is copied into the exchange.
func (e *Endpoint) startExchange(now time.Time, batch []outMsg) error {
	pair, err := e.sigChain.NextPair()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrChainExhausted, err) //alpha:alloc-ok the chain ran out: once per chain lifetime
	}
	e.noteChainGauges()
	if !e.chainLow && e.sigChainIsLow() {
		e.chainLow = true
		e.emit(Event{Kind: EventChainLow})
	}
	seq := e.nextSeq
	e.nextSeq++
	x := e.newTx()
	x.mode, x.pair = e.cfg.Mode, pair
	x.msgs = append(x.msgs, batch...)
	x.clearMarks(len(batch))         //alpha:alloc-ok grows past 64 messages once per exchange object
	x.s2s = grown(x.s2s, len(batch)) //alpha:alloc-ok grows to the batch size once per exchange object
	s1 := &e.s1
	*s1 = packet.S1{Mode: x.mode, AuthIdx: pair.AuthIdx, Auth: pair.Auth, KeyIdx: pair.KeyIdx}
	if e.digests == nil {
		// The sender's lists, a batch long each, in one allocation.
		lists := make([][]byte, 2*e.cfg.BatchSize) //alpha:alloc-ok the first exchange: once per endpoint
		e.digests, e.freePayloads = lists[:0:e.cfg.BatchSize], lists[e.cfg.BatchSize:e.cfg.BatchSize]
	}
	e.digests = e.digests[:0]
	switch x.mode {
	case packet.ModeBase, packet.ModeC:
		// The batch's MACs are assembled in the endpoint's scratch: once
		// the S1 is encoded nothing on the signer needs them again.
		size := e.suite.Size()
		e.macSlab = e.macSlab[:0]
		for i := range x.msgs {
			off := len(e.macSlab)
			e.macSlab = e.suite.MACInto(e.macSlab, pair.Key, e.mac.input(e.assoc, seq, uint32(i), x.msgs[i].payload)...)
			e.digests = append(e.digests, e.macSlab[off:off+size:off+size])
		}
		s1.MACs = e.digests
	case packet.ModeM, packet.ModeCM:
		// One tree over the batch (M), or k subtrees over its slices (CM),
		// each rebuilt in the storage its slot held last time.
		n, k := len(x.msgs), 1
		if x.mode == packet.ModeCM {
			k = min(e.cfg.CMRoots, n)
		}
		sub := CMSubSize(n, k)
		k = (n + sub - 1) / sub // the partition may need fewer roots than CMRoots
		if cap(x.trees) < k {
			x.trees = append(x.trees[:cap(x.trees)], make([]merkle.Tree, k-cap(x.trees))...) //alpha:alloc-ok grows to the subtree count once per exchange object
		}
		x.trees = x.trees[:k]
		for i := range x.trees {
			if err := e.buildTree(&x.trees[i], x.msgs[i*sub:min((i+1)*sub, n)], pair.Key); err != nil {
				return err
			}
			e.digests = append(e.digests, x.trees[i].Root())
		}
		s1.LeafCount = uint32(n)
		if x.mode == packet.ModeM {
			s1.Root = e.digests[0]
		} else {
			s1.Roots = e.digests
		}
	}
	x.reserve(e.txSlabLen(x, len(e.digests))) //alpha:alloc-ok a fresh exchange, or one larger than this slab has held: one allocation for all it will hold
	if x.s1, err = x.encode(e.header(packet.TypeS1, seq), s1); err != nil {
		return err
	}
	x.deadline = now.Add(e.cfg.RTO)
	e.tx.Insert(seq, x, e.cfg.MaxOutstanding) // flushQueue stays below the bound: nothing is evicted
	e.queueOut(x.s1, x)
	e.tel.SentS1.Inc()
	e.tracer.Trace(e.tnow, telemetry.TraceS1Sent, e.assoc, seq, uint32(len(batch)))
	e.spans.Emit(e.tnow, e.assoc, obs.Key(pair.Auth), seq, obs.RoleSender, obs.StepS1, uint8(x.mode), obs.VerdictSent, uint32(len(batch)))
	return nil
}

// buildTree rebuilds t as the keyed Merkle tree over the payloads of msgs.
func (e *Endpoint) buildTree(t *merkle.Tree, msgs []outMsg, key []byte) error {
	e.leafIn = grown(e.leafIn, len(msgs)) //alpha:alloc-ok grows to the batch size once per endpoint
	for i := range msgs {
		e.leafIn = append(e.leafIn, MerkleLeafInput(msgs[i].payload))
	}
	return t.Build(e.suite, key, e.leafIn)
}

// errNoPreAck is what an A1 without the pre-(n)ack material its exchange
// needs is dropped with.
var errNoPreAck = fmt.Errorf("%w: missing pre-acknowledgment material", ErrBadAck)

// handleA1 processes the verifier's acknowledgment of an S1: it validates
// the acknowledgment-chain element, records the pre-(n)ack material, and
// releases the exchange's S2 packets.
//
//alpha:hotpath
func (e *Endpoint) handleA1(now time.Time, hdr packet.Header, a1 *packet.A1) {
	e.tel.RecvA1.Inc()
	x, ok := e.tx.Get(hdr.Seq)
	if !ok {
		e.drop(hdr.Seq, ErrUnsolicited)
		return
	}
	e.spanKey = obs.Key(x.pair.Auth)
	if err := e.peer.VerifyAck(a1.Auth, a1.AuthIdx, a1.KeyIdx); err != nil {
		e.drop(hdr.Seq, err)
		return
	}
	if x.state != txAwaitA1 {
		// §3.2.2: after sending S2 the signer must discard pre-(n)acks
		// arriving in further A1 packets to preserve the temporal
		// separation between pre-ack creation and key disclosure. The
		// element was checked all the same, so what is ignored here is
		// the verifier's.
		return //alpha:drop-ok a late A1 of a live exchange is ignored by design, not dropped
	}
	e.tracer.Trace(e.tnow, telemetry.TraceA1Recv, e.assoc, hdr.Seq, 0)
	e.spans.Emit(e.tnow, e.assoc, obs.Key(x.pair.Auth), hdr.Seq, obs.RoleSender, obs.StepA1, uint8(x.mode), obs.VerdictRecv, 0)
	if e.cfg.Reliable {
		// The first A1 must carry the material its exchange needs: a pre-ack
		// pair for one message, an AMT over all of them for a batch. The A1
		// is a view of the caller's buffer, so that is copied into the slab.
		n := len(x.msgs)
		if !(a1.PreAck != nil && a1.PreNack != nil && n == 1) && !(a1.AMTRoot != nil && int(a1.AMTLeaves) == n) {
			e.drop(hdr.Seq, errNoPreAck)
			return
		}
		x.BufferA1(&x.buf, a1)
	}
	if err := e.sendS2s(now, x); err != nil {
		e.drop(hdr.Seq, err)
	}
}

// sendS2s encodes and transmits every S2 packet of the exchange.
func (e *Endpoint) sendS2s(now time.Time, x *txExchange) error {
	x.s2s = x.s2s[:0]
	for i := range x.msgs {
		s2 := &e.s2
		*s2 = packet.S2{
			Mode:     x.mode,
			KeyIdx:   x.pair.KeyIdx,
			Key:      x.pair.Key,
			MsgIndex: uint32(i),
			Payload:  x.msgs[i].payload,
		}
		if x.mode == packet.ModeM || x.mode == packet.ModeCM {
			// Mode M's one tree is CM's partition with a single root.
			root, leaf, _, ok := CMLocate(i, len(x.msgs), len(x.trees))
			if !ok {
				return fmt.Errorf("core: tree locate failed for message %d", i) //alpha:alloc-ok internal-state error, never a packet's fault
			}
			var err error
			if e.digests, err = x.trees[root].AppendProof(e.digests[:0], leaf); err != nil {
				return err
			}
			s2.LeafCount = uint32(len(x.msgs))
			s2.Proof = e.digests
		}
		raw, err := x.encode(e.header(packet.TypeS2, x.Key()), s2)
		if err != nil {
			return err
		}
		x.s2s = append(x.s2s, raw)
		e.queueOut(raw, x)
		e.tel.SentS2.Inc()
	}
	e.tracer.Trace(e.tnow, telemetry.TraceS2Sent, e.assoc, x.Key(), uint32(len(x.msgs)))
	e.spans.Emit(e.tnow, e.assoc, obs.Key(x.pair.Auth), x.Key(), obs.RoleSender, obs.StepS2, uint8(x.mode), obs.VerdictSent, uint32(len(x.msgs)))
	if e.cfg.Reliable {
		x.state = txAwaitA2
		x.retries = 0
		x.deadline = now.Add(e.cfg.RTO)
	} else {
		e.finishExchange(x)
	}
	return nil
}

// finishExchange retires a completed exchange: its payload buffers are free
// for the next Send at once, the exchange itself (and its slab) as soon as
// no datagram of it is lent out.
func (e *Endpoint) finishExchange(x *txExchange) {
	x.state = txDone
	x.deadline = time.Time{}
	e.tx.Remove(x)
	for i := range x.msgs {
		e.freePayloads = append(e.freePayloads, x.msgs[i].payload)
		x.msgs[i].payload = nil
	}
	if x.lent == 0 {
		e.tx.Recycle(x)
	}
}

// handleA2 processes a pre-(n)ack opening from the verifier.
//
//alpha:hotpath
func (e *Endpoint) handleA2(now time.Time, hdr packet.Header, a2 *packet.A2) {
	e.tel.RecvA2.Inc()
	x, ok := e.tx.Get(hdr.Seq)
	if !ok || x.state != txAwaitA2 {
		e.drop(hdr.Seq, ErrUnsolicited)
		return
	}
	e.spanKey = obs.Key(x.pair.Auth)
	if err := x.VerifyA2(e.suite, &e.mac, len(x.msgs), a2); err != nil {
		e.drop(hdr.Seq, err)
		return
	}
	i := int(a2.MsgIndex)
	if x.Done(i) {
		return //alpha:drop-ok a duplicate of a verified A2 changes nothing
	}
	e.spans.Emit(e.tnow, e.assoc, obs.Key(x.pair.Auth), hdr.Seq, obs.RoleSender, obs.StepA2, uint8(x.mode), obs.VerdictRecv, a2.MsgIndex)
	m := &x.msgs[i]
	if !a2.Ack {
		e.tel.Nacked.Inc()
		e.emit(Event{Kind: EventNacked, MsgID: m.id, Seq: hdr.Seq, MsgIndex: a2.MsgIndex})
		// A verified nack means the S2 arrived damaged or not at all;
		// retransmit it immediately (selective repeat, §3.3.3).
		e.retransmitS2(x, i)
		return
	}
	all := x.MarkDone(i)
	// The rekey announcement is protocol-internal: its verified ack
	// commits the chain swap and surfaces as EventRekeyed, not as an
	// application acknowledgment.
	if e.rekey != nil && e.rekey.msgID == m.id {
		e.maybeCompleteRekey(m.id)
	} else {
		e.tel.Acked.Inc()
		if !m.sentAt.IsZero() {
			lat := now.Sub(m.sentAt)
			e.tel.AckLatencyMaxNS.SetMax(uint64(lat))
			e.tel.AckLatency.Observe(int64(lat))
		}
		e.emit(Event{Kind: EventAcked, MsgID: m.id, Seq: hdr.Seq, MsgIndex: a2.MsgIndex})
	}
	if all {
		e.finishExchange(x)
	}
}

// retransmitS2 re-queues one S2 packet.
func (e *Endpoint) retransmitS2(x *txExchange, i int) {
	if i >= len(x.s2s) {
		return
	}
	e.queueOut(x.s2s[i], x)
	e.tel.Retransmits.Inc()
}

var errRetransmitLimit = errors.New("alpha: retransmission limit reached")

// pollExchanges fires retransmission timers.
func (e *Endpoint) pollExchanges(now time.Time) {
	// finishExchange removes x: take its successor first.
	for x, next := e.tx.First(), (*txExchange)(nil); x != nil; x = next {
		next = e.tx.Next(x)
		if x.deadline.IsZero() || now.Before(x.deadline) {
			continue
		}
		if x.retries >= e.cfg.MaxRetries {
			for i := range x.msgs {
				if !x.Done(i) {
					e.emit(Event{Kind: EventSendFailed, MsgID: x.msgs[i].id, Seq: x.Key(), MsgIndex: uint32(i), Err: errRetransmitLimit})
					e.abortRekey(x.msgs[i].id)
				}
			}
			e.finishExchange(x)
			continue
		}
		x.retries++
		x.deadline = now.Add(backoff(e.cfg.RTO, x.retries))
		switch x.state {
		case txAwaitA1:
			e.queueOut(x.s1, x)
			e.tel.Retransmits.Inc()
		case txAwaitA2:
			for i := range x.msgs {
				if !x.Done(i) {
					e.retransmitS2(x, i)
				}
			}
		}
	}
}

// backoff doubles the retransmission timeout per retry, capped at 16×RTO:
// the paper calls for "robust and fast retransmission" of the small control
// packets (§3.5), so unbounded exponential backoff would be wrong for the
// lossy networks ALPHA targets.
func backoff(rto time.Duration, retries int) time.Duration {
	if retries > 4 {
		retries = 4
	}
	return rto << uint(retries)
}
