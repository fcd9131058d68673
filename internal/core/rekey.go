// In-band chain rekeying.
//
// A hash chain is a finite resource: after ChainLen/2 exchanges the owner
// has disclosed everything and the association dies (§3.4 of the paper
// requires a fresh bootstrap). Rather than forcing a new handshake — which
// would need asymmetric crypto again in protected deployments — this
// implementation refreshes chains *in-band*: the owner generates new chains
// and announces their anchors in a control message protected by the old
// chains, exactly like any other signed payload. Verifier and relays check
// it hop-by-hop (it is just an S1/S2 exchange), then atomically switch
// their walkers to the new anchors. The old chain authenticates the new
// one, preserving the identity continuity that re-authentication is built
// on (§2.1).
//
// The control message travels as a normal payload with a magic prefix, so
// relays can recognize it through their existing extraction path (§3.5's
// secure middlebox signaling, applied to the protocol itself).

package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"alpha/internal/hashchain"
)

// rekeyMagic prefixes in-band rekey announcements.
var rekeyMagic = []byte("AREK\x01")

// ErrRekeyBusy is returned when a rekey is requested while exchanges are
// still in flight; the old chain must finish its business first so that
// walkers never need two generations at once.
var ErrRekeyBusy = errors.New("alpha: rekey requires an idle association")

// ErrRekeyPending is returned when a rekey is already in progress.
var ErrRekeyPending = errors.New("alpha: rekey already in progress")

// rekeyState tracks an in-flight local rekey.
type rekeyState struct {
	msgID          uint64
	newSig, newAck *hashchain.Chain
}

// RekeyPayload is a decoded rekey announcement, exported so relays can
// parse extracted control payloads with the same code the endpoint uses.
type RekeyPayload struct {
	SigAnchor []byte
	AckAnchor []byte
	ChainLen  uint32
}

// EncodeRekey builds the control payload announcing new chain anchors.
func EncodeRekey(p RekeyPayload) []byte {
	out := make([]byte, 0, len(rekeyMagic)+4+len(p.SigAnchor)+len(p.AckAnchor))
	out = append(out, rekeyMagic...)
	out = binary.BigEndian.AppendUint32(out, p.ChainLen)
	out = append(out, p.SigAnchor...)
	return append(out, p.AckAnchor...)
}

// DecodeRekey parses a control payload; ok is false when the payload is
// not a rekey announcement for the given digest size.
func DecodeRekey(payload []byte, digestSize int) (RekeyPayload, bool) {
	if len(payload) != len(rekeyMagic)+4+2*digestSize || !IsRekeyPayload(payload) {
		return RekeyPayload{}, false
	}
	off := len(rekeyMagic)
	p := RekeyPayload{ChainLen: binary.BigEndian.Uint32(payload[off:])}
	off += 4
	p.SigAnchor = append([]byte(nil), payload[off:off+digestSize]...)
	p.AckAnchor = append([]byte(nil), payload[off+digestSize:]...)
	return p, true
}

// IsRekeyPayload reports whether an extracted payload carries the rekey
// announcement prefix.
func IsRekeyPayload(payload []byte) bool {
	if len(payload) < len(rekeyMagic) {
		return false
	}
	for i, b := range rekeyMagic {
		if payload[i] != b {
			return false
		}
	}
	return true
}

// Rekey generates fresh local chains and announces their anchors through
// the protected channel. It requires reliable mode (the chain swap commits
// on the peer's verifiable ack) and an idle association. The returned
// message ID identifies the announcement; once it is Acked the endpoint
// signs with the new chains, and EventRekeyed fires.
func (e *Endpoint) Rekey(now time.Time) (uint64, error) {
	if !e.established {
		return 0, ErrNotEstablished
	}
	if !e.cfg.Reliable {
		return 0, errors.New("alpha: rekey requires reliable mode")
	}
	if e.rekey != nil {
		return 0, ErrRekeyPending
	}
	// Only in-flight exchanges block a rekey: they pin old-chain state on
	// the path. Queued messages have consumed nothing yet — they simply
	// wait out the rotation and ride the new chain.
	if e.tx.Len() > 0 {
		return 0, ErrRekeyBusy
	}
	if e.sigChain.Remaining() < 2 || e.ackChain.Remaining() < 2 {
		return 0, fmt.Errorf("%w: too few elements left to sign the rekey", ErrChainExhausted)
	}
	_, newSig, newAck, err := freshChains(e.cfg)
	if err != nil {
		return 0, err
	}
	payload := EncodeRekey(RekeyPayload{
		SigAnchor: newSig.Anchor(),
		AckAnchor: newAck.Anchor(),
		ChainLen:  uint32(e.cfg.ChainLen),
	})
	// The announcement bypasses the send queue: queued application
	// messages may themselves be waiting for this rotation.
	e.nextMsgID++
	m := outMsg{id: e.nextMsgID, payload: payload}
	if err := e.startExchange(now, []outMsg{m}); err != nil {
		return 0, err
	}
	e.rekey = &rekeyState{msgID: m.id, newSig: newSig, newAck: newAck}
	return m.id, nil
}

// maybeCompleteRekey commits the local chain swap when the announcement is
// acknowledged. Called from the A2 path.
func (e *Endpoint) maybeCompleteRekey(msgID uint64) {
	if e.rekey == nil || e.rekey.msgID != msgID {
		return
	}
	e.sigChain = e.rekey.newSig
	e.ackChain = e.rekey.newAck
	e.rekey = nil
	e.chainLow = false
	e.noteChainGauges()
	e.emit(Event{Kind: EventRekeyed, MsgID: msgID})
}

// abortRekey drops a failed rekey attempt (announcement never delivered).
func (e *Endpoint) abortRekey(msgID uint64) {
	if e.rekey != nil && e.rekey.msgID == msgID {
		e.rekey = nil
	}
}
