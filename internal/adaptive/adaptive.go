// Package adaptive closes ALPHA's observe-decide-apply loop: it watches a
// live association's telemetry and decides which Mode/BatchSize profile the
// link deserves right now.
//
// ALPHA's modes are points on an overhead/latency/robustness trade-off
// (§3.3 of the paper): Basic minimizes latency and per-hop state for
// interactive low-rate traffic, ALPHA-C minimizes bytes on the wire when
// loss is low, and ALPHA-M amortizes the S1/A1 round trip over a large
// batch n so lossy bulk transfer keeps its pipeline full despite RTO
// stalls. The paper picks the point at association setup; this package
// makes the choice continuous, which is the "adaptive" half of the title.
//
// The controller is deliberately boring control theory:
//
//   - Signals are EWMA-smoothed deltas of the endpoint's atomic counters —
//     retransmission ratio standing in for path loss, ack RTT, payload
//     goodput — plus instantaneous queue backlog and hash-chain depletion.
//   - Decisions pass through three dampers before they touch the endpoint:
//     hysteresis (enter/exit thresholds differ, so a signal hovering at one
//     threshold cannot oscillate the mode), confirmation (a target must win
//     Confirm consecutive samples), and cool-down (a minimum dwell time
//     between transitions). A transition that still reverses the previous
//     one within FlapWindow is counted as a flap — the controller's own
//     quality metric, expected to stay at zero in steady scenarios.
//   - Applying a decision is delegated to core.Endpoint.SetProfile, which
//     switches at the exchange boundary; the controller never needs to know
//     about wire formats or in-flight state.
//
// Observe is allocation-free: all state is fixed-size value types and all
// metric updates are atomic stores, so controllers can run per association
// at any sampling rate without disturbing the hot path.
package adaptive

import (
	"time"

	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// Tuning. The controller prefers staying put over chasing noise, and these
// are the values BENCH_adaptive.json measured against the best static
// profile per segment (TestAdaptiveMatchesBestStatic holds them to it).
const (
	// Interval is the minimum time between accepted samples; Observe calls
	// arriving sooner return a hold without touching the estimators.
	// Transports tick the controller at this period.
	Interval = 250 * time.Millisecond
	// Cooldown is the minimum dwell time between applied transitions: long
	// enough to space decisions beyond two samples, short enough that the
	// ramp C/16 -> M/16 -> M/32 -> M/64 completes within a few seconds.
	Cooldown = 600 * time.Millisecond
	// Confirm is how many consecutive samples must agree on a target
	// profile before it becomes a decision.
	Confirm = 2
	// FlapWindow bounds flap detection: a transition that reverses the
	// previous one within this window increments the Flaps counter.
	FlapWindow = 10 * time.Second
	// LossEnterM / LossExitM are the smoothed retransmission-ratio
	// hysteresis thresholds around ALPHA-M.
	LossEnterM = 0.05
	LossExitM  = 0.015
	// LowRate / HighRate are the goodput hysteresis thresholds (bytes/s)
	// around Basic: below LowRate the flow is interactive and drops to
	// Basic, above HighRate batching re-engages.
	LowRate  = 2048
	HighRate = 8192
	// MinBatch / MaxBatch bound the batch size n. ALPHA-C always runs at
	// MinBatch; ALPHA-M starts at MinBatch and doubles toward MaxBatch
	// while loss persists.
	MinBatch = 16
	MaxBatch = 64
	// EWMAAlpha is the smoothing weight of the newest sample.
	EWMAAlpha = 0.3
)

// Config wires one Controller to its association's sinks. The zero value
// is a working configuration.
type Config struct {
	// Assoc labels trace records; Metrics and Tracer are optional sinks.
	Assoc   uint64
	Metrics *telemetry.ControllerMetrics
	Tracer  *telemetry.Tracer
	// OnFlap, if set, fires when a transition reverses the previous one
	// within FlapWindow — the hook flight recorders use to freeze the
	// association's span history around the oscillation.
	OnFlap func(assoc uint64)
}

// Sample is one observation of an association, taken from the sender-side
// endpoint. Counter fields are cumulative (the controller differences
// consecutive samples itself), gauge fields are instantaneous.
type Sample struct {
	Now time.Time

	// Cumulative counters, straight from telemetry.EndpointMetrics.
	SentS2        uint64
	Retransmits   uint64
	Acked         uint64
	Nacked        uint64
	PayloadBytes  uint64
	AckLatencySum time.Duration // sum over all acks; mean = Δsum/Δacked

	// Instantaneous state.
	QueueDepth     int // messages queued but not yet in an exchange
	InFlight       int // open exchanges
	ChainRemaining int
	ChainLen       int
}

// Reason explains a Decision.
type Reason uint8

const (
	// ReasonHold: no change (warm-up, interval gating, cool-down,
	// confirmation pending, or the target equals the active profile).
	ReasonHold Reason = iota
	// ReasonLossHigh: smoothed loss crossed LossEnterM; ALPHA-M engaged.
	ReasonLossHigh
	// ReasonLossPersist: loss stayed high in ALPHA-M; batch size doubled.
	ReasonLossPersist
	// ReasonLossLow: smoothed loss fell under LossExitM; ALPHA-C resumed.
	ReasonLossLow
	// ReasonIdle: goodput fell under LowRate; Basic serves the flow.
	ReasonIdle
	// ReasonBulk: goodput rose over HighRate; batching re-engaged.
	ReasonBulk
	// ReasonChainPressure: chains deplete fast; larger batches stretch the
	// remaining pairs further (one pair per exchange regardless of n).
	ReasonChainPressure
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonHold:
		return "hold"
	case ReasonLossHigh:
		return "loss_high"
	case ReasonLossPersist:
		return "loss_persist"
	case ReasonLossLow:
		return "loss_low"
	case ReasonIdle:
		return "idle"
	case ReasonBulk:
		return "bulk"
	case ReasonChainPressure:
		return "chain_pressure"
	default:
		return "unknown"
	}
}

// Decision is the controller's output for one sample. When Changed is
// false the profile repeats the previous decision and Reason is
// ReasonHold; callers only need to act on Changed decisions.
type Decision struct {
	Mode      packet.Mode
	BatchSize int
	Changed   bool
	Reason    Reason
}

// Controller is a per-association feedback controller. It is a pure state
// machine — callers feed it Samples (SampleEndpoint builds one from a live
// endpoint) and apply Changed decisions via Endpoint.SetProfile. Not safe
// for concurrent use; drive it from the goroutine that owns the endpoint,
// exactly like the endpoint itself. A copy would fork the estimator state,
// so share a *Controller.
type Controller struct {
	_   noCopy
	cfg Config

	// Active profile (what the endpoint runs) and proposal state.
	mode     packet.Mode
	batch    int
	proposed Decision // candidate awaiting confirmation
	agree    int      // consecutive samples agreeing with proposed

	// Previous profile + transition time, for flap detection and cooldown.
	prevMode    packet.Mode
	prevBatch   int
	lastChange  time.Time
	haveChanged bool

	// Estimators.
	last     Sample // previous accepted sample
	haveLast bool
	lossEWMA float64 // retransmission ratio, 0..1
	rttEWMA  float64 // ns
	rateEWMA float64 // payload bytes/s

	decisions uint32 // ordinal for trace records
}

// noCopy makes go vet's copylocks check flag a Controller copied by value:
// the check looks for a field whose pointer type has Lock and Unlock.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New creates a controller that assumes the association currently runs the
// given profile (pass Endpoint.Profile()).
func New(cfg Config, current packet.Mode, batch int) *Controller {
	c := &Controller{cfg: cfg, mode: current, batch: batch}
	if m := cfg.Metrics; m != nil {
		m.TargetMode.Set(int64(current))
		m.TargetBatch.Set(int64(batch))
	}
	return c
}

// Profile returns the profile of the last decision.
func (c *Controller) Profile() (packet.Mode, int) { return c.mode, c.batch }

// Loss returns the smoothed retransmission ratio in [0, 1].
func (c *Controller) Loss() float64 { return c.lossEWMA }

// Rate returns the smoothed goodput estimate in bytes/s.
func (c *Controller) Rate() float64 { return c.rateEWMA }

// hold reports the unchanged profile.
func (c *Controller) hold() Decision {
	if m := c.cfg.Metrics; m != nil {
		m.Holds.Inc()
	}
	return Decision{Mode: c.mode, BatchSize: c.batch, Reason: ReasonHold}
}

// Observe feeds one sample and returns the controller's decision. The
// first sample only seeds the estimators. Allocation-free.
func (c *Controller) Observe(s Sample) Decision {
	if m := c.cfg.Metrics; m != nil {
		m.Samples.Inc()
		m.QueueDepth.Set(int64(s.QueueDepth))
	}
	if !c.haveLast {
		c.last, c.haveLast = s, true
		return c.hold()
	}
	dt := s.Now.Sub(c.last.Now)
	if dt < Interval {
		return c.hold() // sampled too soon; keep estimator cadence stable
	}
	c.update(s, dt)
	target, reason := c.target(s)

	// Confirmation: the same non-hold target must win Confirm consecutive
	// samples. A changing target restarts the count.
	if target.Mode == c.mode && target.BatchSize == c.batch {
		c.agree = 0
		return c.hold()
	}
	if target.Mode == c.proposed.Mode && target.BatchSize == c.proposed.BatchSize {
		c.agree++
	} else {
		c.proposed, c.agree = Decision{Mode: target.Mode, BatchSize: target.BatchSize}, 1
	}
	if c.agree < Confirm {
		return c.hold()
	}
	// Cool-down: recent transitions pin the profile.
	if c.haveChanged && s.Now.Sub(c.lastChange) < Cooldown {
		return c.hold()
	}
	return c.apply(s.Now, target.Mode, target.BatchSize, reason)
}

// update advances the EWMAs from the delta between s and the last sample.
func (c *Controller) update(s Sample, dt time.Duration) {
	const a = EWMAAlpha
	dSent := s.SentS2 - c.last.SentS2
	dRetr := (s.Retransmits - c.last.Retransmits) + (s.Nacked - c.last.Nacked)
	if dSent+dRetr > 0 {
		loss := float64(dRetr) / float64(dSent+dRetr)
		c.lossEWMA += a * (loss - c.lossEWMA)
	}
	if dAck := s.Acked - c.last.Acked; dAck > 0 {
		rtt := float64(s.AckLatencySum-c.last.AckLatencySum) / float64(dAck)
		c.rttEWMA += a * (rtt - c.rttEWMA)
	}
	rate := float64(s.PayloadBytes-c.last.PayloadBytes) / dt.Seconds()
	c.rateEWMA += a * (rate - c.rateEWMA)
	c.last = s

	if m := c.cfg.Metrics; m != nil {
		m.LossPPM.Set(int64(c.lossEWMA * 1e6))
		m.AckRTTNS.Set(int64(c.rttEWMA))
		m.GoodputBps.Set(int64(c.rateEWMA))
		if s.ChainLen > 0 {
			spent := float64(s.ChainLen-s.ChainRemaining) / float64(s.ChainLen)
			m.ChainSpentPPM.Set(int64(spent * 1e6))
		}
	}
}

// target maps the current estimator state onto the profile the link
// deserves, with the reason a transition to it would carry.
//
// Hysteresis is the Schmitt-trigger form: entering a state compares the
// estimate against the outer threshold, staying in it against the inner
// one, so an estimate wandering inside the band never changes the answer —
// and a brief spike that only clears the inner band proposes nothing,
// which lets the confirmation counter reset and damp it.
func (c *Controller) target(s Sample) (Decision, Reason) {
	var quiet bool
	if c.mode == packet.ModeBase {
		quiet = c.rateEWMA <= HighRate && s.QueueDepth == 0
	} else {
		quiet = c.rateEWMA < LowRate && s.QueueDepth == 0 && s.InFlight <= 1
	}
	var lossy bool
	if c.mode == packet.ModeM {
		lossy = c.lossEWMA >= LossExitM
	} else {
		lossy = c.lossEWMA > LossEnterM
	}
	switch {
	case quiet:
		// Interactive trickle: no batch to amortize over, so Basic's
		// immediacy wins and per-hop state stays minimal.
		return Decision{Mode: packet.ModeBase, BatchSize: 1}, ReasonIdle
	case lossy:
		// Lossy bulk: ALPHA-M keeps the pipeline full through RTO stalls.
		// While loss persists above the enter threshold at the current
		// batch, grow n toward MaxBatch — each doubling halves the
		// per-payload share of the S1/A1 round trip and of the chain pair
		// the exchange consumes.
		if c.mode == packet.ModeM {
			n := c.batch * 2
			if n > MaxBatch {
				n = MaxBatch
			}
			if n != c.batch && c.lossEWMA > LossEnterM {
				return Decision{Mode: packet.ModeM, BatchSize: n}, ReasonLossPersist
			}
			return Decision{Mode: packet.ModeM, BatchSize: c.batch}, ReasonHold
		}
		return Decision{Mode: packet.ModeM, BatchSize: MinBatch}, ReasonLossHigh
	case s.ChainLen > 0 && float64(s.ChainRemaining) < float64(s.ChainLen)/4 &&
		c.mode != packet.ModeM:
		// Chains deplete one pair per exchange whatever n is, so pressure
		// on the chain argues for stretching each exchange further while
		// the rekey catches up.
		return Decision{Mode: packet.ModeM, BatchSize: MaxBatch}, ReasonChainPressure
	default:
		// Clean, busy link: ALPHA-C's cumulative MACs are the byte-leanest
		// way to authenticate a batch.
		reason := ReasonLossLow
		if c.mode == packet.ModeBase {
			reason = ReasonBulk
		}
		return Decision{Mode: packet.ModeC, BatchSize: MinBatch}, reason
	}
}

// apply commits a transition and emits its records.
func (c *Controller) apply(now time.Time, mode packet.Mode, batch int, reason Reason) Decision {
	flap := c.haveChanged && mode == c.prevMode && batch == c.prevBatch &&
		now.Sub(c.lastChange) < FlapWindow
	c.prevMode, c.prevBatch = c.mode, c.batch
	c.mode, c.batch = mode, batch
	c.lastChange, c.haveChanged = now, true
	c.proposed, c.agree = Decision{}, 0
	c.decisions++

	if m := c.cfg.Metrics; m != nil {
		m.Decisions.Inc()
		m.TargetMode.Set(int64(mode))
		m.TargetBatch.Set(int64(batch))
		if flap {
			m.Flaps.Inc()
		}
	}
	if flap && c.cfg.OnFlap != nil {
		c.cfg.OnFlap(c.cfg.Assoc)
	}
	c.cfg.Tracer.Trace(now.UnixNano(), telemetry.TraceAdaptiveDecision,
		c.cfg.Assoc, c.decisions, uint32(mode)<<16|uint32(batch))
	return Decision{Mode: mode, BatchSize: batch, Changed: true, Reason: reason}
}
