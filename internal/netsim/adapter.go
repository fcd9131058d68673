// Adapters connecting the sans-IO ALPHA engine to the simulator.

package netsim

import (
	"time"

	"alpha/internal/adaptive"
	"alpha/internal/core"
)

// EndpointNode drives a core.Endpoint inside the simulation: received
// packets are handed to the engine, engine output is transmitted toward the
// peer, and the engine's timer requests become simulator events.
type EndpointNode struct {
	Name string
	Peer string // destination node name of all engine output
	EP   *core.Endpoint

	net    *Network
	events []core.Event
	// OnEvent, if set, observes every engine event as it happens.
	OnEvent func(now time.Time, ev core.Event)

	timerGen uint64 // invalidates stale timer events
	ctrlGen  uint64 // invalidates a detached controller's tick chain
}

// NewEndpointNode wraps an endpoint and registers it on the network.
func NewEndpointNode(net *Network, name, peer string, ep *core.Endpoint) *EndpointNode {
	en := &EndpointNode{Name: name, Peer: peer, EP: ep, net: net}
	net.AddNode(name, en)
	return en
}

// Receive implements Handler.
func (en *EndpointNode) Receive(net *Network, now time.Time, pkt Packet) {
	evs, err := en.EP.Handle(now, pkt.Data)
	if err == nil {
		en.record(now, evs)
	}
	en.pump(now)
}

// Start begins the handshake (initiator side) and pumps the engine.
func (en *EndpointNode) Start(now time.Time) error {
	hs1, err := en.EP.StartHandshake(now)
	if err != nil {
		return err
	}
	en.transmit(hs1)
	en.arm(now)
	return nil
}

// Send queues an application payload and pumps the engine.
func (en *EndpointNode) Send(now time.Time, payload []byte) (uint64, error) {
	id, err := en.EP.Send(now, payload)
	if err != nil {
		return 0, err
	}
	en.pump(now)
	return id, nil
}

// Flush forces partial batches out.
func (en *EndpointNode) Flush(now time.Time) {
	en.EP.Flush(now)
	en.pump(now)
}

// Events returns every engine event recorded so far.
func (en *EndpointNode) Events() []core.Event { return en.events }

// CountEvents counts recorded events of one kind.
func (en *EndpointNode) CountEvents(kind core.EventKind) int {
	c := 0
	for _, ev := range en.events {
		if ev.Kind == kind {
			c++
		}
	}
	return c
}

// DeliveredPayloads returns the payloads of all Delivered events.
func (en *EndpointNode) DeliveredPayloads() [][]byte {
	var out [][]byte
	for _, ev := range en.events {
		if ev.Kind == core.EventDelivered {
			out = append(out, ev.Payload)
		}
	}
	return out
}

// pump drains the engine's outbox and events, then re-arms the timer.
func (en *EndpointNode) pump(now time.Time) {
	out, evs := en.EP.Poll(now)
	en.record(now, evs)
	for _, raw := range out {
		en.transmit(raw)
	}
	en.arm(now)
}

func (en *EndpointNode) record(now time.Time, evs []core.Event) {
	for _, ev := range evs {
		en.events = append(en.events, ev)
		if en.OnEvent != nil {
			en.OnEvent(now, ev)
		}
	}
}

func (en *EndpointNode) transmit(raw []byte) {
	_ = en.net.Inject(en.Name, en.Peer, raw)
}

// AttachAdaptive runs an adaptive controller against this node's endpoint:
// every adaptive.Interval of virtual time it samples the endpoint, feeds the
// controller, applies changed decisions via SetProfile and re-pumps the
// engine. The tick chain keeps the event queue non-empty, so scenarios
// using an attached controller should run with Run/RunFor deadlines, not
// RunUntilIdle. Returns the controller for inspection.
func (en *EndpointNode) AttachAdaptive(cfg adaptive.Config) *adaptive.Controller {
	ctrl := adaptive.ForEndpoint(cfg, en.EP)
	en.ctrlGen++
	gen := en.ctrlGen
	var tick func(t time.Time)
	tick = func(t time.Time) {
		if gen != en.ctrlGen {
			return // detached or replaced
		}
		if d, err := adaptive.Drive(ctrl, en.EP, t); err == nil && d.Changed {
			en.pump(t) // a new profile may change flush deadlines
		}
		en.net.Schedule(t.Add(adaptive.Interval), tick)
	}
	en.net.Schedule(en.net.Now().Add(adaptive.Interval), tick)
	return ctrl
}

// DetachAdaptive stops the attached controller's tick chain.
func (en *EndpointNode) DetachAdaptive() { en.ctrlGen++ }

// arm schedules the engine's next timeout as a simulator event.
func (en *EndpointNode) arm(now time.Time) {
	deadline, ok := en.EP.NextTimeout()
	if !ok {
		return
	}
	if deadline.Before(now) {
		deadline = now
	}
	en.timerGen++
	gen := en.timerGen
	en.net.Schedule(deadline, func(t time.Time) {
		if gen != en.timerGen {
			return // superseded by newer activity
		}
		en.pump(t)
	})
}
