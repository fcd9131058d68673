// Static bootstrapping (§3.4 of the paper): "For pre-configured scenarios,
// such as static wireless sensor networks, base stations can provide nodes
// with pair-wise anchors."
//
// A Provisioner plays the base station: it mints matching endpoint halves
// for a pair of nodes — each side gets its own chains plus the peer's
// anchors — so associations come up with zero on-air handshake packets and
// zero asymmetric cryptography. Relays that should verify the pair's
// traffic are provisioned with the anchor set (RelaySeed) instead of
// learning it from an observed handshake.

package core

import (
	"errors"
	"fmt"

	"alpha/internal/hashchain"
	"alpha/internal/suite"
)

// AnchorSet is everything a third party (a relay) needs to verify one
// association: the association ID, the suite, and all four chain anchors.
type AnchorSet struct {
	Assoc uint64
	// Suite is the wire ID of the association's hash suite.
	Suite uint8
	// InitSig/InitAck anchor the initiator-role host's chains;
	// RespSig/RespAck the responder's.
	InitSig, InitAck []byte
	RespSig, RespAck []byte
}

// Provisioned is one node's half of a preconfigured association.
type Provisioned struct {
	cfg       Config
	assoc     uint64
	initiator bool
	sig, ack  *hashchain.Chain
	// secret seeds both chains (see newChains), retained so the half can be
	// serialized (Record) and rebuilt on another machine.
	secret           []byte
	peerSig, peerAck []byte // peer anchors
}

// Provision mints a matched endpoint pair: feed each Provisioned half to
// NewPreconfiguredEndpoint on its node. Both halves share cfg (suite, mode,
// chain length); the association ID is drawn at random.
func Provision(cfg Config) (initiator, responder *Provisioned, anchors AnchorSet, err error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, nil, AnchorSet{}, err
	}
	assoc, err := newAssocID()
	if err != nil {
		return nil, nil, AnchorSet{}, err
	}
	var half [2]*Provisioned
	for i := range half {
		secret, sig, ack, err := freshChains(c)
		if err != nil {
			return nil, nil, AnchorSet{}, err
		}
		half[i] = &Provisioned{cfg: c, assoc: assoc, initiator: i == 0, sig: sig, ack: ack, secret: secret}
	}
	initiator, responder = half[0], half[1]
	anchors = AnchorSet{
		Assoc:   assoc,
		Suite:   uint8(c.Suite.ID()),
		InitSig: initiator.sig.Anchor(), InitAck: initiator.ack.Anchor(),
		RespSig: responder.sig.Anchor(), RespAck: responder.ack.Anchor(),
	}
	initiator.peerSig, initiator.peerAck = anchors.RespSig, anchors.RespAck
	responder.peerSig, responder.peerAck = anchors.InitSig, anchors.InitAck
	return initiator, responder, anchors, nil
}

// ProvisionRecord is the JSON-serializable form of a Provisioned half, for
// distribution to nodes before deployment. It contains the chain seeds:
// treat it like a private key.
type ProvisionRecord struct {
	Assoc     uint64 `json:"assoc"`
	Initiator bool   `json:"initiator"`
	Suite     uint8  `json:"suite"`
	ChainLen  int    `json:"chain_len"`
	// Secret concatenates the signature and acknowledgment chain seeds.
	Secret        []byte `json:"secret"`
	PeerSigAnchor []byte `json:"peer_sig_anchor"`
	PeerAckAnchor []byte `json:"peer_ack_anchor"`
}

// Record serializes the half for distribution.
func (p *Provisioned) Record() ProvisionRecord {
	return ProvisionRecord{
		Assoc:         p.assoc,
		Initiator:     p.initiator,
		Suite:         uint8(p.cfg.Suite.ID()),
		ChainLen:      p.cfg.ChainLen,
		Secret:        append([]byte(nil), p.secret...),
		PeerSigAnchor: p.peerSig,
		PeerAckAnchor: p.peerAck,
	}
}

// FromRecord rebuilds a Provisioned half on the target node. cfg supplies
// the runtime knobs (mode, batching, timers); the record overrides suite
// and chain length so both halves always agree on the cryptography.
func FromRecord(cfg Config, rec ProvisionRecord) (*Provisioned, error) {
	st, err := suite.ByID(suite.ID(rec.Suite))
	if err != nil {
		return nil, err
	}
	cfg.Suite = st
	cfg.ChainLen = rec.ChainLen
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	if rec.Assoc == 0 {
		return nil, errors.New("core: provisioning record has no association id")
	}
	if len(rec.PeerSigAnchor) != st.Size() || len(rec.PeerAckAnchor) != st.Size() {
		return nil, errors.New("core: provisioning record peer anchors malformed")
	}
	sig, ack, err := newChains(c, rec.Secret)
	if err != nil {
		return nil, err
	}
	return &Provisioned{
		cfg: c, assoc: rec.Assoc, initiator: rec.Initiator,
		sig: sig, ack: ack, secret: rec.Secret,
		peerSig: rec.PeerSigAnchor, peerAck: rec.PeerAckAnchor,
	}, nil
}

// NewPreconfiguredEndpoint builds an established endpoint from provisioned
// material: no handshake packets are ever sent; the association is usable
// immediately (§3.4's static bootstrapping).
func NewPreconfiguredEndpoint(p *Provisioned) (*Endpoint, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil provisioning")
	}
	e, err := newEndpoint(p.cfg, p.sig, p.ack)
	if err != nil {
		return nil, err
	}
	e.assoc, e.initiator, e.established = p.assoc, p.initiator, true
	if e.peer, err = NewPeerChains(e.suite, p.peerSig, p.peerAck); err != nil {
		return nil, err
	}
	return e, nil
}
