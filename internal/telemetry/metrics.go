// Static metric sets for the three instrumented layers: protocol endpoints
// (internal/core), verifying relays (internal/relay) and the UDP transport
// (internal/udptransport). Fields are plain atomic counters so hot paths
// pay exactly one atomic add; names, prefixes and formats exist only at
// export time (Walk).

package telemetry

import "sync/atomic"

// EndpointMetrics counts one protocol endpoint's activity. It backs
// core.Endpoint.Stats(): the endpoint increments these atomically from its
// worker goroutine while Stats() and exporters read them from any other
// goroutine without synchronization hazards.
//
// An EndpointMetrics can also serve as an aggregation target: the UDP
// server folds every session's metrics into one set at scrape time (AddTo).
type EndpointMetrics struct {
	SentS1, SentA1, SentS2, SentA2 Counter
	RecvS1, RecvA1, RecvS2, RecvA2 Counter
	Retransmits                    Counter
	Delivered, Acked, Nacked       Counter
	Dropped                        Counter
	BytesSent, BytesReceived       Counter
	PayloadBytes                   Counter

	// DropReasons splits Dropped by Reason code (see dropSet). Increment
	// through NoteDrop.
	DropReasons [endpointReasonSlots]Counter

	// AckLatency buckets Send-to-verified-ack time in nanoseconds; its Sum
	// is the total that Stats and the adaptive controller read.
	// AckLatencyMaxNS is the high watermark.
	AckLatencyMaxNS Counter
	AckLatency      Histogram
	// PayloadSize buckets delivered (verified) payload sizes.
	PayloadSize Histogram
	// The two histograms' buckets, inline so that an endpoint's metric set
	// is part of the endpoint's own allocation.
	ackLatencyCounts  [len(latencyBounds) + 1]atomic.Uint64
	payloadSizeCounts [len(sizeBounds) + 1]atomic.Uint64

	// Chain-pressure gauges: undisclosed elements remaining on the local
	// signature and acknowledgment chains, next to their disclosable
	// lengths, so rekey pressure is a plottable ratio on a dashboard
	// before EventChainLow fires (the trigger fraction defaults to 1/3 of
	// the chain and is tunable per association).
	SigChainRemaining, AckChainRemaining Gauge
	SigChainLen, AckChainLen             Gauge

	// Profile state: the mode (packet.Mode ordinal) and batch size new
	// exchanges currently start with, and how many runtime transitions
	// (SetProfile) the association has applied — the observable face of
	// the adaptive controller's actuator.
	Mode, BatchSize Gauge
	ModeChanges     Counter
}

// Init fixes the histogram bucket layouts; counters need no setup. It
// allocates nothing.
func (m *EndpointMetrics) Init() *EndpointMetrics {
	m.AckLatency.initIn(LatencyBuckets, m.ackLatencyCounts[:])
	m.PayloadSize.initIn(SizeBuckets, m.payloadSizeCounts[:])
	return m
}

// NewEndpointMetrics allocates an initialized set.
func NewEndpointMetrics() *EndpointMetrics {
	return new(EndpointMetrics).Init()
}

func (m *EndpointMetrics) drops() dropSet {
	return dropSet{&m.Dropped, m.DropReasons[:], familyEndpoint}
}

// NoteDrop records one dropped packet under its Reason code.
//
//alpha:hotpath
func (m *EndpointMetrics) NoteDrop(code uint32) { m.drops().note(code) }

// endpointCounter pairs an exported counter with its export name; max marks
// high-watermark fields that merge with SetMax instead of Add.
type endpointCounter struct {
	name string
	c    *Counter
	max  bool
}

func (m *EndpointMetrics) counters() [18]endpointCounter {
	return [18]endpointCounter{
		{"sent_s1", &m.SentS1, false},
		{"sent_a1", &m.SentA1, false},
		{"sent_s2", &m.SentS2, false},
		{"sent_a2", &m.SentA2, false},
		{"recv_s1", &m.RecvS1, false},
		{"recv_a1", &m.RecvA1, false},
		{"recv_s2", &m.RecvS2, false},
		{"recv_a2", &m.RecvA2, false},
		{"retransmits", &m.Retransmits, false},
		{"delivered", &m.Delivered, false},
		{"acked", &m.Acked, false},
		{"nacked", &m.Nacked, false},
		{"dropped", &m.Dropped, false},
		{"bytes_sent", &m.BytesSent, false},
		{"bytes_received", &m.BytesReceived, false},
		{"payload_bytes", &m.PayloadBytes, false},
		{"ack_latency_ns_max", &m.AckLatencyMaxNS, true},
		{"mode_changes", &m.ModeChanges, false},
	}
}

// gauges pairs each gauge with its export name. fold marks gauges that sum
// meaningfully across sessions (chain pressure); mode and batch size are
// per-association state, so AddTo leaves them alone.
func (m *EndpointMetrics) gauges() [6]struct {
	name string
	g    *Gauge
	fold bool
} {
	return [6]struct {
		name string
		g    *Gauge
		fold bool
	}{
		{"sig_chain_remaining", &m.SigChainRemaining, true},
		{"sig_chain_len", &m.SigChainLen, true},
		{"ack_chain_remaining", &m.AckChainRemaining, true},
		{"ack_chain_len", &m.AckChainLen, true},
		{"mode", &m.Mode, false},
		{"batch_size", &m.BatchSize, false},
	}
}

// Walk reports every metric to v.
func (m *EndpointMetrics) Walk(v Visitor) {
	cs := m.counters()
	for i := range cs {
		v.Counter(cs[i].name, cs[i].c.Load())
	}
	m.drops().walk(v)
	gs := m.gauges()
	for i := range gs {
		v.Gauge(gs[i].name, gs[i].g.Load())
	}
	v.Histogram("ack_latency_ns", m.AckLatency.Snapshot())
	v.Histogram("payload_size_bytes", m.PayloadSize.Snapshot())
}

// AddTo folds this set into dst (atomic loads and adds on both sides, so
// both may be live). High-watermark fields merge as maxima; histograms
// merge bucket-wise.
func (m *EndpointMetrics) AddTo(dst *EndpointMetrics) {
	src, d := m.counters(), dst.counters()
	for i := range src {
		n := src[i].c.Load()
		if n == 0 {
			continue
		}
		if src[i].max {
			d[i].c.SetMax(n)
		} else {
			d[i].c.Add(n)
		}
	}
	for i := range m.DropReasons {
		if n := m.DropReasons[i].Load(); n != 0 {
			dst.DropReasons[i].Add(n)
		}
	}
	gs, dg := m.gauges(), dst.gauges()
	for i := range gs {
		if !gs[i].fold {
			continue
		}
		if n := gs[i].g.Load(); n != 0 {
			dg[i].g.Add(n)
		}
	}
	m.AckLatency.AddTo(&dst.AckLatency)
	m.PayloadSize.AddTo(&dst.PayloadSize)
}

// ControllerMetrics exposes one adaptive controller's closed loop: the
// signal estimates it maintains (EWMAs, exported as gauges so a dashboard
// shows what the controller currently believes), the target profile it has
// decided on, and how often it decides, holds, or flaps. Counters and
// gauges only — the decision path stays allocation-free.
type ControllerMetrics struct {
	// Samples counts signal observations; Decisions counts applied
	// profile changes; Holds counts samples where hysteresis, confirmation
	// or cool-down kept the profile despite a differing target; Flaps
	// counts changes that reverted the immediately preceding change within
	// the flap window (the instability a controller must avoid).
	Samples, Decisions, Holds, Flaps Counter

	// TargetMode / TargetBatch is the profile the controller currently
	// wants (it equals the endpoint profile once applied).
	TargetMode, TargetBatch Gauge

	// Signal estimates, scaled for integer export: smoothed loss in parts
	// per million, smoothed ack RTT in nanoseconds, smoothed goodput in
	// bytes/s, chain depletion in ppm of the chain spent, and the queue
	// backlog at the last sample.
	LossPPM, AckRTTNS, GoodputBps Gauge
	ChainSpentPPM, QueueDepth     Gauge
}

// Walk reports every metric to v.
func (m *ControllerMetrics) Walk(v Visitor) {
	v.Counter("samples", m.Samples.Load())
	v.Counter("decisions", m.Decisions.Load())
	v.Counter("holds", m.Holds.Load())
	v.Counter("flaps", m.Flaps.Load())
	v.Gauge("target_mode", m.TargetMode.Load())
	v.Gauge("target_batch", m.TargetBatch.Load())
	v.Gauge("loss_ppm", m.LossPPM.Load())
	v.Gauge("ack_rtt_ns", m.AckRTTNS.Load())
	v.Gauge("goodput_bps", m.GoodputBps.Load())
	v.Gauge("chain_spent_ppm", m.ChainSpentPPM.Load())
	v.Gauge("queue_depth", m.QueueDepth.Load())
}

// RelayMetrics counts a verifying relay's activity, with one counter per
// drop reason so hop-by-hop failures never vanish silently (agent-skipping
// attacks on forwarding protocols are exactly the failures that per-hop
// accounting surfaces).
type RelayMetrics struct {
	Forwarded Counter
	Dropped   Counter
	Handshake Counter

	// DropReasons splits Dropped by Reason code (see dropSet). Increment
	// through NoteDrop.
	DropReasons [NumReasons]Counter
	// Unknown counts unknown-association *lookups*, which drop only under
	// the strict policy (where ReasonStrictPolicy counts the drop), so it
	// exports outside the drop_ family.
	Unknown Counter

	ExtractedBytes Counter
	// ExtractedSize buckets verified-and-extracted payload sizes.
	ExtractedSize Histogram
}

// Init fixes the histogram bucket layout.
func (m *RelayMetrics) Init() *RelayMetrics {
	m.ExtractedSize.Init(SizeBuckets)
	return m
}

func (m *RelayMetrics) drops() dropSet {
	return dropSet{&m.Dropped, m.DropReasons[:], familyRelay}
}

// NoteDrop records one dropped packet under its Reason code.
//
//alpha:hotpath
func (m *RelayMetrics) NoteDrop(code uint32) { m.drops().note(code) }

// Walk reports every metric to v. Drop reasons export under a drop_ prefix
// so dashboards can sum them as one family.
func (m *RelayMetrics) Walk(v Visitor) {
	v.Counter("forwarded", m.Forwarded.Load())
	v.Counter("dropped", m.Dropped.Load())
	v.Counter("handshakes", m.Handshake.Load())
	m.drops().walk(v)
	v.Counter("unknown_assoc", m.Unknown.Load())
	v.Counter("extracted_bytes", m.ExtractedBytes.Load())
	v.Histogram("extracted_size_bytes", m.ExtractedSize.Snapshot())
}

// AdmissionMetrics counts the connect-token admission stage in front of
// session creation: tokens that checked out, and rejections split by
// reason.
type AdmissionMetrics struct {
	// TokensVerified counts HS1 tokens that decrypted, validated and
	// matched the source address — each one admits a session.
	TokensVerified Counter
	// AnchorsBound counts verified tokens that additionally bound the
	// client's hash-chain/Merkle anchors (allowing the §3.4 signature
	// verify to be skipped).
	AnchorsBound Counter
	Dropped      Counter
	// DropReasons splits Dropped by Reason code (see dropSet). Increment
	// through NoteDrop.
	DropReasons [NumReasons]Counter
	// Missing, Invalid and Replayed are the DropReasons slots of those three
	// admission reasons, by the names the frozen bench/ reads them under.
	// Init sets them; nothing else in the repository uses them.
	Missing, Invalid, Replayed *Counter
	// WindowRotations counts replay-window generation swaps.
	WindowRotations Counter
}

// Init points the named read handles at their slots.
func (m *AdmissionMetrics) Init() *AdmissionMetrics {
	m.Missing = &m.DropReasons[ReasonAdmissionMissing]
	m.Invalid = &m.DropReasons[ReasonAdmissionInvalid]
	m.Replayed = &m.DropReasons[ReasonAdmissionReplayed]
	return m
}

func (m *AdmissionMetrics) drops() dropSet {
	return dropSet{&m.Dropped, m.DropReasons[:], familyAdmission}
}

// NoteDrop records one rejected HS packet under its admission Reason code.
//
//alpha:hotpath
func (m *AdmissionMetrics) NoteDrop(code uint32) { m.drops().note(code) }

// Walk reports every metric to v.
func (m *AdmissionMetrics) Walk(v Visitor) {
	v.Counter("tokens_verified", m.TokensVerified.Load())
	v.Counter("anchors_bound", m.AnchorsBound.Load())
	v.Counter("dropped", m.Dropped.Load())
	m.drops().walk(v)
	v.Counter("window_rotations", m.WindowRotations.Load())
}

// IOMetrics counts one socket path's batched datagram I/O: how many socket
// operations moved how many datagrams. On the recvmmsg/sendmmsg engine one
// batch is one syscall, so datagrams−batches is the syscall budget that
// batching saved (exported as io_*_syscalls_saved); on the portable
// fallback every operation carries a single datagram and the saving reads
// zero — which is exactly the comparison BenchmarkUDPBurst records.
type IOMetrics struct {
	ReadBatches      Counter
	WriteBatches     Counter
	DatagramsRead    Counter
	DatagramsWritten Counter

	// ReadBatchSize / WriteBatchSize bucket datagrams-per-operation — the
	// live evidence behind tuning -io-batch.
	ReadBatchSize  Histogram
	WriteBatchSize Histogram

	// Offload-rung accounting (the GSO/GRO engine). A GSO send is
	// one sendmmsg header whose UDP_SEGMENT cmsg packs a run of equal-size
	// datagrams into a single kernel UDP traversal; a GRO split is one
	// coalesced inbound datagram recovered into its segments. Segments minus
	// sends/splits is therefore the kernel-traversal budget the offload tier
	// saved on top of PR 3's syscall batching (exported as
	// io_send_traversals_saved / io_recv_traversals_saved).
	GSOSends    Counter // send headers carrying a UDP_SEGMENT cmsg
	GSOSegments Counter // datagrams packed inside those GSO sends
	GROSplits   Counter // coalesced inbound datagrams that were split
	GROSegments Counter // datagrams recovered from coalesced reads

	// GSOSegsPerSend / GROSegsPerRead bucket segments-per-offload-operation,
	// the live evidence that runs actually coalesce.
	GSOSegsPerSend Histogram
	GROSegsPerRead Histogram
}

// Init fixes the histogram bucket layouts.
func (m *IOMetrics) Init() *IOMetrics {
	m.ReadBatchSize.Init(BatchBuckets)
	m.WriteBatchSize.Init(BatchBuckets)
	m.GSOSegsPerSend.Init(BatchBuckets)
	m.GROSegsPerRead.Init(BatchBuckets)
	return m
}

// NoteRead records one read operation that delivered n datagrams.
func (m *IOMetrics) NoteRead(n int) {
	m.ReadBatches.Inc()
	m.DatagramsRead.Add(uint64(n))
	m.ReadBatchSize.Observe(int64(n))
}

// NoteWrite records one write operation that sent n datagrams.
func (m *IOMetrics) NoteWrite(n int) {
	m.WriteBatches.Inc()
	m.DatagramsWritten.Add(uint64(n))
	m.WriteBatchSize.Observe(int64(n))
}

// NoteGSOWrite records one UDP_SEGMENT-tagged send header that packed segs
// datagrams into a single kernel traversal.
func (m *IOMetrics) NoteGSOWrite(segs int) {
	m.GSOSends.Inc()
	m.GSOSegments.Add(uint64(segs))
	m.GSOSegsPerSend.Observe(int64(segs))
}

// NoteGRORead records one coalesced inbound datagram split into segs
// segments.
func (m *IOMetrics) NoteGRORead(segs int) {
	m.GROSplits.Inc()
	m.GROSegments.Add(uint64(segs))
	m.GROSegsPerRead.Observe(int64(segs))
}

// Walk reports every metric to v, including the derived syscalls-saved and
// traversals-saved pairs.
func (m *IOMetrics) Walk(v Visitor) {
	rb, wb := m.ReadBatches.Load(), m.WriteBatches.Load()
	dr, dw := m.DatagramsRead.Load(), m.DatagramsWritten.Load()
	v.Counter("io_read_batches", rb)
	v.Counter("io_write_batches", wb)
	v.Counter("io_datagrams_read", dr)
	v.Counter("io_datagrams_written", dw)
	var savedR, savedW uint64
	if dr > rb {
		savedR = dr - rb
	}
	if dw > wb {
		savedW = dw - wb
	}
	v.Counter("io_read_syscalls_saved", savedR)
	v.Counter("io_write_syscalls_saved", savedW)
	v.Histogram("io_read_batch_size", m.ReadBatchSize.Snapshot())
	v.Histogram("io_write_batch_size", m.WriteBatchSize.Snapshot())

	gsends, gsegs := m.GSOSends.Load(), m.GSOSegments.Load()
	gsplits, grsegs := m.GROSplits.Load(), m.GROSegments.Load()
	v.Counter("io_gso_sends", gsends)
	v.Counter("io_gso_segments", gsegs)
	v.Counter("io_gro_splits", gsplits)
	v.Counter("io_gro_segments", grsegs)
	var savedTx, savedRx uint64
	if gsegs > gsends {
		savedTx = gsegs - gsends
	}
	if grsegs > gsplits {
		savedRx = grsegs - gsplits
	}
	v.Counter("io_send_traversals_saved", savedTx)
	v.Counter("io_recv_traversals_saved", savedRx)
	v.Histogram("io_gso_segs_per_send", m.GSOSegsPerSend.Snapshot())
	v.Histogram("io_gro_segs_per_read", m.GROSegsPerRead.Snapshot())
}

// RelayTransportMetrics counts the UDP relay's socket-level activity — the
// datagram layer beneath relay.Relay's per-verdict counters.
type RelayTransportMetrics struct {
	IO IOMetrics

	Datagrams Counter // datagrams read off the socket
	Bytes     Counter // bytes read off the socket
	// UnknownPeerDrops counts datagrams from addresses other than the two
	// configured peers, discarded before verification (previously a silent
	// continue).
	UnknownPeerDrops Counter
	// WriteErrors counts forwarding batches the socket refused — the
	// relay's only way to lose a verified packet after the verdict.
	WriteErrors Counter
	// PrefilterDrops counts datagrams the stateless prefilter rejected
	// before verification (bad structure or address-bound cookie
	// mismatch).
	PrefilterDrops Counter
}

// Init fixes the embedded histogram layouts.
func (m *RelayTransportMetrics) Init() *RelayTransportMetrics {
	m.IO.Init()
	return m
}

// Walk reports every metric to v.
func (m *RelayTransportMetrics) Walk(v Visitor) {
	v.Counter("datagrams", m.Datagrams.Load())
	v.Counter("bytes", m.Bytes.Load())
	v.Counter("unknown_peer_drops", m.UnknownPeerDrops.Load())
	v.Counter("write_errors", m.WriteErrors.Load())
	v.Counter(DropSample(ReasonPrefilter), m.PrefilterDrops.Load())
	m.IO.Walk(v)
}

// TransportMetrics counts UDP server activity: session lifecycle and the
// datagram drops that previously vanished without a trace.
type TransportMetrics struct {
	IO IOMetrics

	SessionsCreated Counter
	SessionsRemoved Counter
	ActiveSessions  Gauge
	Accepted        Counter

	Datagrams Counter // datagrams read off the socket
	Bytes     Counter // bytes read off the socket

	// InboxDrops counts datagrams dropped because a session worker's
	// bounded inbox was full (back-pressure, the UDP-native semantics).
	InboxDrops Counter
	// UnknownAssocDrops counts datagrams for associations this server does
	// not hold that cannot open one: anything but a decodable HS1.
	UnknownAssocDrops Counter
	// ShortDatagrams counts reads with no decodable header: below the
	// header size, or (prefilter off) a header the codec rejects.
	ShortDatagrams Counter
	// EndpointFailures counts handshakes that could not spawn an endpoint.
	EndpointFailures Counter
	// EventDrops counts engine events discarded because a session's event
	// channel was full (slow or absent consumer; delivery is best-effort).
	EventDrops Counter

	// PrefilterDrops counts datagrams the stateless prefilter rejected
	// before any session-map lookup or MAC (bad structure or address-bound
	// cookie mismatch).
	PrefilterDrops Counter
	// AcceptBacklogDrops counts established sessions discarded because the
	// accept backlog was at its cap.
	AcceptBacklogDrops Counter

	// Generation-rotation accounting: Rotations counts map swaps,
	// SessionsExpired counts idle associations retired by a swap (a subset
	// of SessionsRemoved).
	Rotations       Counter
	SessionsExpired Counter

	// Worker-pool accounting: Workers is the pool size, RunQueueDepth the
	// current number of associations queued for a worker, and
	// DispatchLatency buckets socket-read-to-engine-handle time — the p99
	// of this histogram is the flatness claim BenchmarkScale records.
	Workers         Gauge
	RunQueueDepth   Gauge
	DispatchLatency Histogram
}

// Init fixes the embedded histogram layouts; counters need no setup.
func (m *TransportMetrics) Init() *TransportMetrics {
	m.IO.Init()
	m.DispatchLatency.Init(LatencyBuckets)
	return m
}

// Walk reports every metric to v.
func (m *TransportMetrics) Walk(v Visitor) {
	m.IO.Walk(v)
	v.Counter("sessions_created", m.SessionsCreated.Load())
	v.Counter("sessions_removed", m.SessionsRemoved.Load())
	v.Gauge("active_sessions", m.ActiveSessions.Load())
	v.Counter("accepted", m.Accepted.Load())
	v.Counter("datagrams", m.Datagrams.Load())
	v.Counter("bytes", m.Bytes.Load())
	v.Counter("inbox_drops", m.InboxDrops.Load())
	v.Counter("unknown_assoc_drops", m.UnknownAssocDrops.Load())
	v.Counter("short_datagrams", m.ShortDatagrams.Load())
	v.Counter("endpoint_failures", m.EndpointFailures.Load())
	v.Counter("event_drops", m.EventDrops.Load())
	v.Counter(DropSample(ReasonPrefilter), m.PrefilterDrops.Load())
	v.Counter(DropSample(ReasonAcceptBacklog), m.AcceptBacklogDrops.Load())
	v.Counter("rotations", m.Rotations.Load())
	v.Counter("sessions_expired", m.SessionsExpired.Load())
	v.Gauge("workers", m.Workers.Load())
	v.Gauge("run_queue_depth", m.RunQueueDepth.Load())
	v.Histogram("dispatch_latency_ns", m.DispatchLatency.Snapshot())
}
