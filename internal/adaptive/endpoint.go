// Glue between the controller and a live core.Endpoint: sampling its
// telemetry and applying decisions through SetProfile.

package adaptive

import (
	"time"

	"alpha/internal/core"
)

// SampleEndpoint builds a Sample from a live sender-side endpoint. Counter
// reads are atomic loads; QueueDepth and InFlight read engine state, so
// like every endpoint method this must run on the goroutine that owns the
// endpoint. Allocation-free.
func SampleEndpoint(ep *core.Endpoint, now time.Time) Sample {
	tel := ep.Telemetry()
	return Sample{
		Now:            now,
		SentS2:         tel.SentS2.Load(),
		Retransmits:    tel.Retransmits.Load(),
		Acked:          tel.Acked.Load(),
		Nacked:         tel.Nacked.Load(),
		PayloadBytes:   tel.PayloadBytes.Load(),
		AckLatencySum:  time.Duration(tel.AckLatency.Sum()),
		QueueDepth:     ep.QueueLen(),
		InFlight:       ep.InFlight(),
		ChainRemaining: int(tel.SigChainRemaining.Load()),
		ChainLen:       int(tel.SigChainLen.Load()),
	}
}

// Drive runs one observe-decide-apply iteration: sample the endpoint, feed
// the controller, and commit a changed decision via SetProfile (which takes
// effect at the next exchange boundary). Call it from the endpoint's timer
// loop about every Interval; extra calls are cheap holds.
func Drive(c *Controller, ep *core.Endpoint, now time.Time) (Decision, error) {
	d := c.Observe(SampleEndpoint(ep, now))
	if d.Changed {
		if err := ep.SetProfile(now, core.Profile{Mode: d.Mode, BatchSize: d.BatchSize}); err != nil {
			return d, err
		}
	}
	return d, nil
}

// ForEndpoint creates a controller initialized from the endpoint's current
// profile and association, wiring the endpoint's tracer-compatible assoc id
// into cfg when unset.
func ForEndpoint(cfg Config, ep *core.Endpoint) *Controller {
	if cfg.Assoc == 0 {
		cfg.Assoc = ep.Assoc()
	}
	p := ep.Profile()
	return New(cfg, p.Mode, p.BatchSize)
}
