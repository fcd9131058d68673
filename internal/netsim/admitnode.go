// Admission-gated forwarding for simulated topologies: the connect-token
// tier of internal/admission, dropped into a netsim path the way the UDP
// server mounts it in front of session creation.

package netsim

import (
	"hash/fnv"
	"time"

	"alpha/internal/admission"
	"alpha/internal/packet"
)

// SimAddr derives a deterministic pseudo client address from a node name,
// so admission tokens can bind simulated sources the way they bind real UDP
// ones. Issuers mint for SimAddr(client); the gate checks against
// SimAddr(pkt.Origin).
func SimAddr(name string) (ip []byte, port int) {
	h := fnv.New32a()
	h.Write([]byte(name))
	s := h.Sum32()
	return []byte{10, byte(s >> 16), byte(s >> 8), byte(s)}, 1024 + int(s>>17)%40000
}

// AdmissionGate is a netsim node applying the connect-token tier to every
// HS1 passing through it — the simulator stand-in for the UDP server's
// dispatch-stage verifier. Rejected handshakes die at the gate (counted by
// the verifier's own metrics); everything else forwards toward its
// destination.
type AdmissionGate struct {
	Name string
	V    *admission.Verifier
	// Admitted and Rejected count HS1 verdicts at this gate.
	Admitted, Rejected uint64
}

// NewAdmissionGate registers an admission gate on the network.
func NewAdmissionGate(n *Network, name string, v *admission.Verifier) *AdmissionGate {
	g := &AdmissionGate{Name: name, V: v}
	n.AddNode(name, g)
	return g
}

// Receive implements Handler.
func (g *AdmissionGate) Receive(n *Network, now time.Time, pkt Packet) {
	if hdr, err := packet.PeekHeader(pkt.Data); err == nil && hdr.Type == packet.TypeHS1 {
		var verdict admission.Verdict
		var view packet.HS1View
		if view.Parse(hdr, pkt.Data) {
			ip, port := SimAddr(pkt.Origin)
			verdict = g.V.Admit(now, view.Token, ip, port, view.SigAnchor, view.AckAnchor)
		} else {
			verdict = g.V.RejectMalformed()
		}
		if !verdict.OK {
			g.Rejected++
			return
		}
		g.Admitted++
	}
	_ = n.Forward(g.Name, pkt)
}
