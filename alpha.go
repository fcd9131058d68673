// Package alpha implements ALPHA, the Adaptive and Lightweight Protocol for
// Hop-by-hop Authentication (Heer, Götz, Garcia Morchon, Wehrle; ACM CoNEXT
// 2008): end-to-end and hop-by-hop integrity protection for unicast traffic
// in multi-hop networks, built entirely from hash chains and hash trees.
//
// # Protocol in one paragraph
//
// Two hosts exchange hash chain anchors once, during a handshake. To send a
// protected message m, the signer first announces a MAC of m keyed with its
// *next undisclosed* chain element (packet S1); the verifier acknowledges
// with an element of its own acknowledgment chain (A1); only then does the
// signer reveal m and the MAC key (S2). Every forwarding node that watched
// the S1 can verify the S2 before spending energy on it, so forged,
// tampered and unsolicited packets are dropped at the first honest hop.
// Three operational modes trade memory, CPU and bandwidth: the base
// protocol (one message per round trip), ALPHA-C (n cumulative
// pre-signatures per S1), and ALPHA-M (one Merkle tree root per S1 with
// per-packet proofs). An optional reliable mode adds verifiable
// pre-acknowledgments (and acknowledgment Merkle trees for batches).
//
// # Package layout
//
// This root package is a facade over the implementation packages; it
// re-exports everything a downstream user needs:
//
//   - Endpoint: the sans-IO protocol engine (one per association end).
//   - Relay: hop-by-hop verification for forwarding nodes.
//   - Conn / DialUDP / ListenUDP: run an association over real sockets.
//   - Network and friends: a deterministic multi-hop network simulator
//     for tests and experiments.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package alpha

import (
	"net"
	"time"

	"alpha/internal/adaptive"
	"alpha/internal/core"
	"alpha/internal/netsim"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
	"alpha/internal/udptransport"
)

// Mode selects the operational mode of an association (§3.3 of the paper).
type Mode = packet.Mode

// Operational modes.
const (
	// ModeBase is the basic three-way exchange: one message per S1.
	ModeBase = packet.ModeBase
	// ModeC is ALPHA-C: one S1 carries n cumulative pre-signatures.
	ModeC = packet.ModeC
	// ModeM is ALPHA-M: one S1 carries a Merkle tree root over n messages.
	ModeM = packet.ModeM
	// ModeCM combines C and M: k Merkle roots per S1, shorter proofs per
	// packet (§3.3.2's combined operation).
	ModeCM = packet.ModeCM
)

// Suite is a cryptographic hash suite.
type Suite = suite.Suite

// SHA1 returns the SHA-1 suite (20-byte digests), the paper's default for
// mobile devices and mesh routers.
func SHA1() Suite { return suite.SHA1() }

// SHA256 returns the SHA-256 suite (32-byte digests), a modern default.
func SHA256() Suite { return suite.SHA256() }

// MMO returns the Matyas-Meyer-Oseas AES-128 suite (16-byte digests), the
// paper's choice for sensor nodes with AES hardware (§4.1.3).
func MMO() Suite { return suite.MMO() }

// Config parameterizes an Endpoint; the zero value selects basic unreliable
// ALPHA over SHA-1.
type Config = core.Config

// Endpoint is one end of an ALPHA association: a sans-IO engine fed with
// time and datagrams. Use NewEndpoint for direct (simulated or custom
// transport) integration, or DialUDP/ListenUDP for sockets.
type Endpoint = core.Endpoint

// NewEndpoint creates an endpoint with fresh hash chains.
func NewEndpoint(cfg Config) (*Endpoint, error) { return core.NewEndpoint(cfg) }

// Provisioned is one node's half of a statically bootstrapped association
// (§3.4: a base station distributes pair-wise anchors before deployment);
// AnchorSet is what it hands to on-path relays.
type (
	Provisioned = core.Provisioned
	AnchorSet   = core.AnchorSet
)

// Provision mints a matched endpoint pair plus the relay anchor set for a
// handshake-free association.
func Provision(cfg Config) (initiator, responder *Provisioned, anchors AnchorSet, err error) {
	return core.Provision(cfg)
}

// NewPreconfiguredEndpoint builds an already-established endpoint from
// provisioned material; no handshake packets are ever sent.
func NewPreconfiguredEndpoint(p *Provisioned) (*Endpoint, error) {
	return core.NewPreconfiguredEndpoint(p)
}

// Event is something an endpoint wants the application to know; EventKind
// enumerates the possibilities. EventKind is a uint8, so that an Event packs
// into 72 bytes; code that stored kinds as int converts explicitly.
type (
	Event     = core.Event
	EventKind = core.EventKind
)

// Event kinds.
const (
	EventEstablished = core.EventEstablished
	EventDelivered   = core.EventDelivered
	EventAcked       = core.EventAcked
	EventNacked      = core.EventNacked
	EventSendFailed  = core.EventSendFailed
	EventChainLow    = core.EventChainLow
	EventDropped     = core.EventDropped
	EventRekeyed     = core.EventRekeyed
	EventPeerRekeyed = core.EventPeerRekeyed
	EventModeChanged = core.EventModeChanged
)

// Re-exported error values for errors.Is tests on events and decisions.
var (
	ErrBadMAC         = core.ErrBadMAC
	ErrBadProof       = core.ErrBadProof
	ErrBadAuthElement = core.ErrBadAuthElement
	ErrUnsolicited    = core.ErrUnsolicited
	ErrChainExhausted = core.ErrChainExhausted
	ErrNotEstablished = core.ErrNotEstablished
)

// Relay applies hop-by-hop verification at a forwarding node; RelayConfig
// parameterizes it and Decision is its per-packet verdict.
type (
	Relay       = relay.Relay
	RelayConfig = relay.Config
	Decision    = relay.Decision
	Verdict     = relay.Verdict
)

// Relay verdicts.
const (
	Forward = relay.Forward
	Drop    = relay.Drop
)

// NewRelay creates a verifying relay.
func NewRelay(cfg RelayConfig) *Relay { return relay.New(cfg) }

// Conn runs one association over a datagram socket: one goroutine reads the
// socket, another fires the engine's flush and retransmission deadlines when
// they fall due. Its API — Send, Flush, Events, SetProfile, EnableAdaptive —
// is a Server Session's too; both drive the same per-association core.
type Conn = udptransport.Conn

// DialUDP starts an initiator association over UDP and waits for it to
// establish.
func DialUDP(pc net.PacketConn, peer net.Addr, cfg Config, timeout time.Duration) (*Conn, error) {
	return udptransport.Dial(pc, peer, cfg, timeout)
}

// ListenUDP accepts one association over UDP and waits for it to establish.
func ListenUDP(pc net.PacketConn, cfg Config, timeout time.Duration) (*Conn, error) {
	return udptransport.Listen(pc, cfg, timeout)
}

// Server accepts many associations on one datagram socket, demultiplexing
// by association ID; Session is one accepted association.
type (
	Server  = udptransport.Server
	Session = udptransport.Session
)

// NewUDPServer starts a multi-association responder on the socket.
func NewUDPServer(pc net.PacketConn, cfg Config) *Server {
	return udptransport.NewServerWith(cfg, udptransport.ServerOptions{}, pc)
}

// UDPRelay is a verifying UDP forwarder between two peers.
type UDPRelay = udptransport.Relay

// NewUDPRelay creates a verifying UDP relay between peers a and b.
func NewUDPRelay(pc net.PacketConn, a, b net.Addr, cfg RelayConfig) *UDPRelay {
	return udptransport.NewRelay(pc, a, b, cfg)
}

// Observability: every Endpoint, Relay and Server keeps a lock-free metric
// set reachable through its Telemetry method; an Exporter groups any number
// of them under name prefixes and renders Prometheus text, JSON, or a plain
// dump — and serves them over HTTP via its Handler, together with the
// optional per-association packet Tracer (set Config.Tracer /
// RelayConfig.Tracer).
type (
	Exporter         = telemetry.Exporter
	Tracer           = telemetry.Tracer
	EndpointMetrics  = telemetry.EndpointMetrics
	RelayMetrics     = telemetry.RelayMetrics
	TransportMetrics = telemetry.TransportMetrics
)

// NewExporter creates an empty metrics exporter.
func NewExporter() *Exporter { return telemetry.NewExporter() }

// NewTracer creates a packet-lifecycle tracer keeping the most recent size
// events (rounded up to a power of two).
func NewTracer(size int) *Tracer { return telemetry.NewTracer(size) }

// Runtime adaptation: Profile is the (mode, batch-size) pair new exchanges
// use. Endpoint.SetProfile — and its serialized Conn/Session wrappers —
// switches it at the next exchange boundary without disturbing in-flight
// exchanges; the adaptive controller closes the loop, sampling an
// endpoint's telemetry and issuing those transitions itself (Conn and
// Session expose EnableAdaptive, simulator nodes AttachAdaptive).
type (
	Profile            = core.Profile
	AdaptiveConfig     = adaptive.Config
	AdaptiveController = adaptive.Controller
	AdaptiveDecision   = adaptive.Decision
	AdaptiveSample     = adaptive.Sample
	ControllerMetrics  = telemetry.ControllerMetrics
)

// NewAdaptiveController creates a closed-loop mode/batch controller seeded
// with the endpoint's association and current profile. Feed it with
// adaptive.Drive (or SampleEndpoint + Observe) on a steady cadence.
func NewAdaptiveController(cfg AdaptiveConfig, ep *Endpoint) *AdaptiveController {
	return adaptive.ForEndpoint(cfg, ep)
}

// Simulator types: a deterministic discrete-event multi-hop network for
// tests, experiments and the examples.
type (
	Network      = netsim.Network
	LinkConfig   = netsim.LinkConfig
	SimPacket    = netsim.Packet
	EndpointNode = netsim.EndpointNode
	RelayNode    = netsim.RelayNode
)

// NewNetwork creates a simulator with the given random seed.
func NewNetwork(seed int64) *Network { return netsim.New(seed) }

// NewEndpointNode wraps an endpoint as a simulator node sending to peer.
func NewEndpointNode(net *Network, name, peer string, ep *Endpoint) *EndpointNode {
	return netsim.NewEndpointNode(net, name, peer, ep)
}

// NewRelayNode registers a verifying relay node on the simulator.
func NewRelayNode(net *Network, name string, cfg RelayConfig) *RelayNode {
	return netsim.NewRelayNode(net, name, cfg)
}

// DefaultLink returns a link profile resembling one 802.11 mesh hop.
func DefaultLink() LinkConfig { return netsim.DefaultLink() }
