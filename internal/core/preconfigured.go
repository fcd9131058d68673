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
	"crypto/rand"
	"encoding/binary"
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
	sig, ack  hashchain.Owner
	// sigSecret/ackSecret are the chain seeds, retained so the half can
	// be serialized (Record) and rebuilt on another machine.
	sigSecret, ackSecret []byte
	peerSig              []byte // peer anchors
	peerAck              []byte
}

// Provision mints a matched endpoint pair: feed each Provisioned half to
// NewPreconfiguredEndpoint on its node. Both halves share cfg (suite, mode,
// chain length); the association ID is drawn at random.
func Provision(cfg Config) (initiator, responder *Provisioned, anchors AnchorSet, err error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, nil, AnchorSet{}, err
	}
	var aid [8]byte
	if _, err := rand.Read(aid[:]); err != nil {
		return nil, nil, AnchorSet{}, fmt.Errorf("core: generating association id: %w", err)
	}
	assoc := binary.BigEndian.Uint64(aid[:])
	if assoc == 0 {
		assoc = 1
	}
	mk := func() (secret []byte, sig, ack hashchain.Owner, err error) {
		secret = make([]byte, 2*c.Suite.Size())
		if _, err := rand.Read(secret); err != nil {
			return nil, nil, nil, err
		}
		if sig, ack, err = ownersFromSecret(c, secret); err != nil {
			return nil, nil, nil, err
		}
		return secret, sig, ack, nil
	}
	iSecret, iSig, iAck, err := mk()
	if err != nil {
		return nil, nil, AnchorSet{}, err
	}
	rSecret, rSig, rAck, err := mk()
	if err != nil {
		return nil, nil, AnchorSet{}, err
	}
	anchors = AnchorSet{
		Assoc:   assoc,
		Suite:   uint8(c.Suite.ID()),
		InitSig: iSig.Anchor(), InitAck: iAck.Anchor(),
		RespSig: rSig.Anchor(), RespAck: rAck.Anchor(),
	}
	initiator = &Provisioned{
		cfg: c, assoc: assoc, initiator: true,
		sig: iSig, ack: iAck,
		sigSecret: iSecret[:c.Suite.Size()], ackSecret: iSecret[c.Suite.Size():],
		peerSig: rSig.Anchor(), peerAck: rAck.Anchor(),
	}
	responder = &Provisioned{
		cfg: c, assoc: assoc, initiator: false,
		sig: rSig, ack: rAck,
		sigSecret: rSecret[:c.Suite.Size()], ackSecret: rSecret[c.Suite.Size():],
		peerSig: iSig.Anchor(), peerAck: iAck.Anchor(),
	}
	return initiator, responder, anchors, nil
}

// ownersFromSecret derives the sig/ack chain pair from a combined secret
// (first half signature seed, second half acknowledgment seed).
func ownersFromSecret(c Config, secret []byte) (sig, ack hashchain.Owner, err error) {
	h := c.Suite.Size()
	if len(secret) != 2*h {
		return nil, nil, fmt.Errorf("core: provisioning secret must be %d bytes", 2*h)
	}
	build := func(tagOdd, tagEven, seed []byte) (hashchain.Owner, error) {
		if c.CheckpointInterval > 0 {
			return hashchain.NewCheckpoint(c.Suite, tagOdd, tagEven, seed, c.ChainLen, c.CheckpointInterval)
		}
		return hashchain.New(c.Suite, tagOdd, tagEven, seed, c.ChainLen)
	}
	if sig, err = build(hashchain.TagS1, hashchain.TagS2, secret[:h]); err != nil {
		return nil, nil, err
	}
	if ack, err = build(hashchain.TagA1, hashchain.TagA2, secret[h:]); err != nil {
		return nil, nil, err
	}
	return sig, ack, nil
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
		Secret:        append(append([]byte(nil), p.sigSecret...), p.ackSecret...),
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
	sig, ack, err := ownersFromSecret(c, rec.Secret)
	if err != nil {
		return nil, err
	}
	h := st.Size()
	return &Provisioned{
		cfg: c, assoc: rec.Assoc, initiator: rec.Initiator,
		sig: sig, ack: ack,
		sigSecret: rec.Secret[:h], ackSecret: rec.Secret[h:],
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
	e := &Endpoint{
		cfg:         p.cfg,
		suite:       p.cfg.Suite,
		assoc:       p.assoc,
		initiator:   p.initiator,
		established: true,
		sigChain:    p.sig,
		ackChain:    p.ack,
		nextSeq:     1,
		tx:          make(map[uint32]*txExchange),
		rx:          make(map[uint32]*rxExchange),
		outHint:     outHint(p.cfg),
		tracer:      p.cfg.Tracer,
	}
	e.tel.Init()
	var err error
	if e.peer, err = NewPeerChains(e.suite, p.peerSig, p.peerAck); err != nil {
		return nil, err
	}
	e.nonce = make([]byte, e.suite.Size())
	if _, err := rand.Read(e.nonce); err != nil {
		return nil, err
	}
	e.noteChainGauges()
	return e, nil
}
