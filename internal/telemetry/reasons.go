// Drop reasons, declared once: the codes, and one table row per code with
// the reason's name and classes. Everything that needs to know a reason
// reads the table — ReasonString, the exported drop_<name> samples, the
// per-family drop counters (dropSet), the hostile set behind invariant I2
// and the flight recorder's dump trigger (both in internal/obs). Adding a
// reason is one constant here plus one row below.

package telemetry

// Reason codes carried in the Detail field of drop events and spans, and
// the index of a family's per-reason drop counters.
const (
	ReasonNone uint32 = iota
	ReasonMalformed
	ReasonUnknownAssoc
	ReasonRateLimited
	ReasonBadElement
	ReasonBadPayload
	ReasonBadAck
	ReasonUnsolicited
	ReasonOversized
	ReasonStrictPolicy
	ReasonNotEstablished
	ReasonBadDirection
	ReasonBadHandshake
	ReasonSuiteMismatch
	ReasonChainExhausted
	ReasonInboxFull

	// Transport reasons (the UDP server's pre-endpoint drop paths). No
	// family counts them through a dropSet: TransportMetrics has a counter
	// of its own for each and no dropped total for them to add up to.

	// ReasonPrefilter: the stateless prefilter rejected the datagram
	// before any session lookup (bad structure or cookie mismatch).
	ReasonPrefilter
	// ReasonAcceptBacklog: an established session was discarded because
	// the accept backlog was full.
	ReasonAcceptBacklog
	// ReasonExpired: an idle association was retired by generation
	// rotation (counted as sessions_expired: lifecycle, not a drop).
	ReasonExpired

	// ReasonS1RateLimit: a relay discarded an unsolicited S1 because the
	// per-upstream token bucket was empty (§3.5 rate limiting).
	ReasonS1RateLimit

	// Admission reasons (the connect-token stage between the prefilter and
	// session creation).

	// ReasonAdmissionMissing: an HS1 arrived without a token while the
	// server requires one.
	ReasonAdmissionMissing
	// ReasonAdmissionInvalid: the token failed to decrypt/authenticate or
	// carried an unknown version or key ID.
	ReasonAdmissionInvalid
	// ReasonAdmissionExpired: the token authenticated but its expiry had
	// passed.
	ReasonAdmissionExpired
	// ReasonAdmissionReplayed: the token's nonce was already seen inside
	// the replay window.
	ReasonAdmissionReplayed
	// ReasonAdmissionAddrMismatch: the token authenticated but was minted
	// for a different client address.
	ReasonAdmissionAddrMismatch

	// NumReasons is the table's width, one past the last code.
	NumReasons
)

// family is a set of the metric families that count drops by reason.
type family uint8

const (
	familyEndpoint family = 1 << iota
	familyRelay
	familyAdmission
	endpointAndRelay = familyEndpoint | familyRelay
)

// Reason is one row of the reason table.
type Reason struct {
	// Name is what ReasonString returns and, behind "drop_", the exported
	// sample name.
	Name string
	// Hostile marks reasons that only attack or corruption can produce:
	// invariant I2 holds their counters at zero on benign schedules.
	Hostile bool
	// VerifyFail marks failed cryptographic checks of an established
	// exchange, on which the flight recorder dumps the association.
	VerifyFail bool
	// families are the families that own the reason: they export its
	// sample even while it is zero.
	families family
}

const (
	// unknownReason names every code that has no row, and slot 0 of a
	// dropSet.
	unknownReason = "unknown"

	// endpointReasonSlots is the width of EndpointMetrics.DropReasons. An
	// endpoint exists once per association, so its array stops at the last
	// endpoint reason instead of spanning the table (25 slots would move
	// core.Endpoint from the 2 688 B to the 3 072 B size class).
	endpointReasonSlots = 16
	// The endpoint reasons are codes 1..ReasonInboxFull: a constant added
	// before ReasonInboxFull pushes it past the array and fails to compile.
	_ = endpointReasonSlots - 1 - ReasonInboxFull
)

var reasons = [NumReasons]Reason{
	ReasonNone:           {Name: "none"},
	ReasonMalformed:      {Name: "malformed", Hostile: true, families: endpointAndRelay},
	ReasonUnknownAssoc:   {Name: "unknown_assoc", families: familyEndpoint},
	ReasonRateLimited:    {Name: "rate_limited", families: endpointAndRelay},
	ReasonBadElement:     {Name: "bad_element", Hostile: true, VerifyFail: true, families: endpointAndRelay},
	ReasonBadPayload:     {Name: "bad_payload", Hostile: true, VerifyFail: true, families: endpointAndRelay},
	ReasonBadAck:         {Name: "bad_ack", Hostile: true, VerifyFail: true, families: endpointAndRelay},
	ReasonUnsolicited:    {Name: "unsolicited", families: endpointAndRelay},
	ReasonOversized:      {Name: "oversized", families: endpointAndRelay},
	ReasonStrictPolicy:   {Name: "strict_policy", families: endpointAndRelay},
	ReasonNotEstablished: {Name: "not_established", families: familyEndpoint},
	ReasonBadDirection:   {Name: "bad_direction", families: familyEndpoint},
	// Benign reordering across a rekey can garble a handshake, so
	// bad_handshake is not hostile.
	ReasonBadHandshake:   {Name: "bad_handshake", families: endpointAndRelay},
	ReasonSuiteMismatch:  {Name: "suite_mismatch", families: familyEndpoint},
	ReasonChainExhausted: {Name: "chain_exhausted", families: familyEndpoint},
	ReasonInboxFull:      {Name: "inbox_full", families: familyEndpoint},

	ReasonPrefilter:     {Name: "prefilter"},
	ReasonAcceptBacklog: {Name: "accept_backlog"},
	ReasonExpired:       {Name: "expired"},
	ReasonS1RateLimit:   {Name: "s1_ratelimit", families: familyRelay},

	// Clock skew or a Require rollout produces missing and expired tokens
	// on healthy deployments, so those two are not hostile.
	ReasonAdmissionMissing:      {Name: "admission_missing", families: familyAdmission},
	ReasonAdmissionInvalid:      {Name: "admission_invalid", Hostile: true, families: familyAdmission},
	ReasonAdmissionExpired:      {Name: "admission_expired", families: familyAdmission},
	ReasonAdmissionReplayed:     {Name: "admission_replayed", Hostile: true, families: familyAdmission},
	ReasonAdmissionAddrMismatch: {Name: "admission_addr_mismatch", Hostile: true, families: familyAdmission},
}

// ReasonInfo returns a code's table row. A code past the table reads as a
// row named "unknown" with no class.
func ReasonInfo(code uint32) Reason {
	if code < NumReasons {
		return reasons[code]
	}
	return Reason{Name: unknownReason}
}

// ReasonString names a Reason code.
func ReasonString(code uint32) string { return ReasonInfo(code).Name }

// dropSamples holds every row's sample name, built once so that a Walk
// allocates none.
var dropSamples = func() (s [NumReasons]string) {
	for code := range s {
		s[code] = "drop_" + reasons[code].Name
	}
	return s
}()

// DropSample is the exported sample name (sans family prefix) that counts
// a reason's drops.
func DropSample(code uint32) string {
	if code < NumReasons {
		return dropSamples[code]
	}
	return "drop_" + unknownReason
}

// dropSet is the one way a family counts drops: a total and an array of
// per-reason counters indexed by code, moved together by note and exported
// together by walk, so dropped == Σ drop_<reason> (invariant I3) holds by
// construction.
//
// The policy for a code the family does not own: it is counted all the
// same. A code with a slot in the array is counted there, under its own
// name; ReasonNone and any code past the array (past the table, or past the
// endpoint's narrower array) are counted in slot 0, exported as
// drop_unknown. walk exports a family's own reasons always and any other
// slot once it is non-zero.
type dropSet struct {
	total *Counter
	by    []Counter
	owner family
}

//alpha:hotpath
func (d dropSet) note(code uint32) {
	if code >= uint32(len(d.by)) {
		code = ReasonNone
	}
	d.total.Inc()
	d.by[code].Inc()
}

func (d dropSet) walk(v Visitor) {
	for code := 1; code < len(d.by); code++ {
		n := d.by[code].Load()
		if n != 0 || reasons[code].families&d.owner != 0 {
			v.Counter(dropSamples[code], n)
		}
	}
	if n := d.by[ReasonNone].Load(); n != 0 {
		v.Counter("drop_"+unknownReason, n)
	}
}
