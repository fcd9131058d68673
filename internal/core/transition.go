// Runtime profile transitions: switching Mode/BatchSize on a live
// association.
//
// ALPHA's modes trade per-packet overhead, latency and relay buffer against
// the batch size n (§3.3, Tables 4-6), but which trade is right depends on
// the link: Basic minimizes latency and state for interactive low-rate
// traffic, ALPHA-C minimizes bytes when loss is low, ALPHA-M amortizes the
// S1/A1 round trip over large n for lossy bulk transfer. A deployment that
// pins the mode at association setup pays the wrong overhead whenever the
// link changes — so the engine supports switching at runtime.
//
// Why the exchange boundary is a safe transition point, with no wire-format
// or handshake support needed:
//
//   - Every S1 carries its exchange's mode; verifiers (receiver.go) and
//     relays (internal/relay) copy it into their per-exchange state and
//     verify all subsequent S2s of that seq against it. Neither ever
//     consults an association-wide mode.
//   - Sender-side exchanges pin their mode at startExchange (txExchange.mode)
//     and build S2s from the pinned copy, so an exchange that is mid-flight
//     during a transition finishes exactly as announced.
//   - Chain usage is purpose-bound but mode-agnostic: every exchange consumes
//     one signature pair on the sender and one acknowledgment pair on the
//     verifier regardless of mode, so walkers never need re-derivation.
//   - Reliable-mode acknowledgment material is already negotiated per
//     exchange from the S1's batch size (flat pre-ack pair for n=1, AMT for
//     n>1), so it follows the new profile automatically.
//
// SetProfile therefore takes effect at the next startExchange: queued
// messages not yet assigned to an exchange are re-batched under the new
// profile, and nothing in flight is disturbed. This is the "apply at a safe
// boundary" half of the observe-decide-apply loop that internal/adaptive
// closes.

package core

import (
	"fmt"
	"time"

	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// Profile is the runtime-switchable part of an association's configuration:
// the operational mode and the batch size n it covers per S1.
type Profile struct {
	Mode      packet.Mode
	BatchSize int
}

// Profile returns the profile new exchanges are currently started with.
func (e *Endpoint) Profile() Profile {
	return Profile{Mode: e.cfg.Mode, BatchSize: e.cfg.BatchSize}
}

// SetProfile switches the association to a new Mode/BatchSize. The change
// applies at the exchange boundary: every exchange started after the call
// uses the new profile, while exchanges already in flight (including an
// in-flight rekey announcement) finish under the profile they pinned at
// start. Queued messages that have not been assigned to an exchange yet are
// re-batched under the new profile.
//
// BatchSize 0 selects the mode's default (1 for Basic, DefaultBatchSize for
// C/M/CM); Basic clamps any larger batch to 1, mirroring Config. A no-op
// call (profile already active) returns nil without emitting an event.
// Invalid profiles are rejected with an error and the active profile is
// unchanged.
//
// Like every engine method, SetProfile must be called from the goroutine
// that owns the endpoint; transports expose their own serialized wrappers.
func (e *Endpoint) SetProfile(now time.Time, p Profile) error {
	next := e.cfg
	next.Mode = p.Mode
	next.BatchSize = p.BatchSize
	if next.BatchSize == 0 {
		if next.Mode == packet.ModeBase {
			next.BatchSize = 1
		} else {
			next.BatchSize = DefaultBatchSize
		}
	}
	if next.Mode == packet.ModeBase && next.BatchSize > 1 {
		next.BatchSize = 1
	}
	if err := next.validate(); err != nil {
		return fmt.Errorf("core: profile rejected: %w", err)
	}
	if next.Mode == e.cfg.Mode && next.BatchSize == e.cfg.BatchSize {
		return nil // already active
	}
	e.cfg = next
	e.tnow = now.UnixNano()
	e.tel.ModeChanges.Inc()
	e.tel.Mode.Set(int64(next.Mode))
	e.tel.BatchSize.Set(int64(next.BatchSize))
	e.tracer.Trace(e.tnow, telemetry.TraceModeChange, e.assoc, e.nextSeq,
		uint32(next.Mode)<<16|uint32(next.BatchSize))
	e.emit(Event{Kind: EventModeChanged, Mode: next.Mode, Batch: next.BatchSize})
	return nil
}

// sigChainIsLow reports whether the signature chain is below the
// configured low-water fraction.
func (e *Endpoint) sigChainIsLow() bool {
	return float64(e.sigChain.Remaining()) < e.cfg.ChainLowFraction*float64(e.sigChain.Len())
}

// ackChainIsLow is sigChainIsLow for the acknowledgment chain.
func (e *Endpoint) ackChainIsLow() bool {
	return float64(e.ackChain.Remaining()) < e.cfg.ChainLowFraction*float64(e.ackChain.Len())
}
