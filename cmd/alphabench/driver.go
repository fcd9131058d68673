// In-memory protocol driver: two endpoints and an optional relay on a
// path.Path, used by the table experiments for precise measurement without
// simulator scheduling in the way.

package main

import (
	"fmt"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/relay"
)

// driver carries packets between endpoint a (initiator/signer) and endpoint
// b (responder/verifier), optionally through a relay.
type driver struct {
	path.Path[core.Event]
	a, b *core.Endpoint
	r    *relay.Relay

	aEvents, bEvents []core.Event
}

// newDriver creates the endpoints, performs the handshake and returns the
// ready driver. Separate configs allow per-endpoint instrumented suites.
func newDriver(cfgA, cfgB core.Config, relayCfg *relay.Config) (*driver, error) {
	a, err := core.NewEndpoint(cfgA)
	if err != nil {
		return nil, err
	}
	b, err := core.NewEndpoint(cfgB)
	if err != nil {
		return nil, err
	}
	d := &driver{a: a, b: b}
	d.Path = path.Path[core.Event]{
		Now:  time.Unix(1_700_000_000, 0),
		Ends: [2]path.Node[core.Event]{a, b},
		On: func(at path.Side, ev core.Event) {
			if at == path.A {
				d.aEvents = append(d.aEvents, ev)
			} else {
				d.bEvents = append(d.bEvents, ev)
			}
		},
	}
	if relayCfg != nil {
		d.r = relay.New(*relayCfg)
		d.Hops = []path.Hop{func(now time.Time, upstream int, raw []byte) []byte {
			return d.r.ProcessFrom(now, upstream, raw).Forwarded(raw)
		}}
	}
	hs1, err := a.StartHandshake(d.Now)
	if err != nil {
		return nil, err
	}
	if err := d.Carry(path.A, 0, hs1); err != nil {
		return nil, err
	}
	if err := d.pump(40); err != nil {
		return nil, err
	}
	if !a.Established() || !b.Established() {
		return nil, fmt.Errorf("driver handshake failed")
	}
	return d, nil
}

// hold freezes endpoint delivery of a packet type (both directions). The
// relay still observes held packets — it sits mid-path — so experiments can
// freeze the endpoints' protocol state while measuring relay state.
func (d *driver) hold(typ packet.Type) {
	d.Tap = path.Hold(typ, len(d.Hops), nil)
}

// pump advances virtual time and exchanges pending packets until quiet or
// maxRounds elapsed.
func (d *driver) pump(maxRounds int) error {
	return d.Run(maxRounds, 5*time.Millisecond)
}

// exchange sends msgs from a to b as one batch and pumps to completion.
func (d *driver) exchange(msgs [][]byte) error {
	for _, m := range msgs {
		if _, err := d.a.Send(d.Now, m); err != nil {
			return err
		}
	}
	d.a.Flush(d.Now)
	return d.pump(60)
}

// delivered counts b's Delivered events so far.
func (d *driver) delivered() int {
	n := 0
	for _, ev := range d.bEvents {
		if ev.Kind == core.EventDelivered {
			n++
		}
	}
	return n
}
