// Command alphanode runs an ALPHA endpoint or verifying relay on real UDP
// sockets — the deployment face of the library.
//
// A three-terminal demo on one machine:
//
//	alphanode -role listen -addr 127.0.0.1:7001
//	alphanode -role relay  -addr 127.0.0.1:7002 -a 127.0.0.1:7000 -b 127.0.0.1:7001
//	alphanode -role dial   -addr 127.0.0.1:7000 -peer 127.0.0.1:7002 -send "hello" -count 10
//
// The dialer sends toward the relay, which verifies hop-by-hop and forwards
// to the listener; the listener prints every verified payload.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"alpha/internal/adaptive"
	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
	"alpha/internal/udptransport"
)

// maxIOBatch bounds -io-batch: each read loop pre-allocates batch-many
// full-size packet slabs, so an absurd value is almost certainly a typo.
const maxIOBatch = 1024

// maxTraceSize bounds -trace-size (the ring rounds up to a power of two).
const maxTraceSize = 1 << 20

// maxWorkers bounds -workers; the dispatch pool is meant to track cores,
// not sessions, so four digits is already generous.
const maxWorkers = 4096

// validateFlags fail-fasts on out-of-range numeric flags before any socket
// is opened, reporting every problem at once with the offending flag name.
func validateFlags(batch, traceLen, ioBatch, reuse, count, flightLen, workers int, chainLow, s1Rate, s1Burst float64, wait, rotate time.Duration) error {
	var errs []string
	if batch < 1 || batch > packet.MaxMACs {
		errs = append(errs, fmt.Sprintf("-batch %d out of range [1, %d]", batch, packet.MaxMACs))
	}
	if workers < 0 || workers > maxWorkers {
		errs = append(errs, fmt.Sprintf("-workers %d out of range [0, %d] (0 = GOMAXPROCS)", workers, maxWorkers))
	}
	if rotate < 0 {
		errs = append(errs, fmt.Sprintf("-rotate-interval %v must be >= 0 (0 = no expiry)", rotate))
	}
	if traceLen < 1 || traceLen > maxTraceSize {
		errs = append(errs, fmt.Sprintf("-trace-size %d out of range [1, %d]", traceLen, maxTraceSize))
	}
	if flightLen < 1 || flightLen > maxTraceSize {
		errs = append(errs, fmt.Sprintf("-flight-size %d out of range [1, %d]", flightLen, maxTraceSize))
	}
	if ioBatch < 0 || ioBatch > maxIOBatch {
		errs = append(errs, fmt.Sprintf("-io-batch %d out of range [0, %d] (0 = default)", ioBatch, maxIOBatch))
	}
	if reuse < 0 {
		errs = append(errs, fmt.Sprintf("-reuseport %d must be >= 0", reuse))
	}
	if count < 0 {
		errs = append(errs, fmt.Sprintf("-count %d must be >= 0", count))
	}
	if chainLow != 0 && (chainLow <= 0 || chainLow >= 1) {
		errs = append(errs, fmt.Sprintf("-chain-low %v out of range (0, 1) (0 = default %.3g)", chainLow, core.DefaultChainLowFraction))
	}
	if wait <= 0 {
		errs = append(errs, fmt.Sprintf("-wait %v must be positive", wait))
	}
	// The relay's token bucket reads a rate <= 0 as unlimited and forwards
	// an S1 only on a whole token, so a negative or NaN rate would switch
	// the limit off and a burst below 1 would drop every unsolicited S1.
	// The negated comparisons also catch NaN.
	if !(s1Rate >= 0) {
		errs = append(errs, fmt.Sprintf("-s1-rate %v must be >= 0 (0 = unlimited)", s1Rate))
	} else if s1Rate > 0 && !(s1Burst >= 1) {
		errs = append(errs, fmt.Sprintf("-s1-burst %v must be >= 1 when -s1-rate is set", s1Burst))
	}
	if len(errs) == 0 {
		return nil
	}
	msg := errs[0]
	for _, e := range errs[1:] {
		msg += "\n" + e
	}
	return fmt.Errorf("%s", msg)
}

// parseTokenKeys decodes the -token-key flag: comma-separated hex keys,
// each optionally prefixed id: (bare keys get id 1, matching alphatoken's
// default). Several entries let a server verify across a rotation.
func parseTokenKeys(s string) (map[uint8]admission.Key, error) {
	keys := make(map[uint8]admission.Key)
	for _, entry := range strings.Split(s, ",") {
		id := uint64(1)
		hexKey := strings.TrimSpace(entry)
		if i := strings.IndexByte(hexKey, ':'); i >= 0 {
			var err error
			if id, err = strconv.ParseUint(hexKey[:i], 10, 8); err != nil {
				return nil, fmt.Errorf("-token-key id %q: %w", hexKey[:i], err)
			}
			hexKey = hexKey[i+1:]
		}
		raw, err := hex.DecodeString(hexKey)
		if err != nil {
			return nil, fmt.Errorf("-token-key: %w", err)
		}
		if len(raw) != admission.KeySize {
			return nil, fmt.Errorf("-token-key: %d bytes, want %d", len(raw), admission.KeySize)
		}
		var k admission.Key
		copy(k[:], raw)
		keys[uint8(id)] = k
	}
	return keys, nil
}

func main() {
	var (
		role      = flag.String("role", "", "listen, dial, or relay")
		addr      = flag.String("addr", "127.0.0.1:7000", "local UDP address")
		peer      = flag.String("peer", "", "peer address (dial)")
		aAddr     = flag.String("a", "", "first peer (relay)")
		bAddr     = flag.String("b", "", "second peer (relay)")
		send      = flag.String("send", "hello from alphanode", "payload to send (dial)")
		count     = flag.Int("count", 5, "messages to send (dial)")
		modeStr   = flag.String("mode", "base", "mode: base, C, M, or CM")
		batch     = flag.Int("batch", 8, "messages per S1 (C and M)")
		reliable  = flag.Bool("reliable", true, "use reliable delivery")
		wait      = flag.Duration("wait", 30*time.Second, "how long to serve/wait")
		provision = flag.String("provision", "", "provisioning record (JSON) for a handshake-free association")
		anchorsF  = flag.String("anchors", "", "anchor set (JSON) to seed a relay with (relay role)")
		metrics   = flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /trace, /flight and /debug/pprof/ on this HTTP address")
		traceLen  = flag.Int("trace-size", 4096, "packet-trace ring size (most recent events kept)")
		ioBatch   = flag.Int("io-batch", 0, "datagrams per recvmmsg/sendmmsg syscall (0 = default; 1 effectively disables batching)")
		reuse     = flag.Int("reuseport", 0, "serve role: SO_REUSEPORT read loops sharing the port (0 = single socket; capped at GOMAXPROCS; Linux only)")
		adaptOn   = flag.Bool("adaptive", false, "run the closed-loop mode/batch controller on each association (overrides -mode/-batch at runtime)")
		chainLow  = flag.Float64("chain-low", 0, "chain fraction below which ChainLow/auto-rekey fires, in (0, 1) (0 = default)")
		perAssoc  = flag.Bool("metrics-per-assoc", false, "serve role: export one labeled metric family per live association on /metrics")
		flightLen = flag.Int("flight-size", obs.DefaultSpanRingSize, "per-association flight-recorder ring size in spans (served on /flight)")
		workers   = flag.Int("workers", 0, "serve role: session dispatch pool size (0 = GOMAXPROCS)")
		rotate    = flag.Duration("rotate-interval", 0, "serve role: generation-rotation period; associations idle for two periods are expired (0 = never expire)")
		prefilter = flag.Bool("prefilter", false, "stateless packet prefilter: stamp outgoing headers with a source-bound cookie and reject unstamped junk before session lookup (enable on every hop or none; requires UDP addressing without NAT)")
		tokenKeys = flag.String("token-key", "", "admission key(s) as hex-encoded 32 bytes, optionally id:hex and comma-separated for rotation; serve: verify HS1 connect tokens; dial: mint an anchor-bound token locally (deployments mint out of band with alphatoken)")
		tokenReq  = flag.Bool("require-token", false, "serve role: drop HS1s without a valid connect token (admission tier; needs -token-key)")
		tokenHex  = flag.String("token", "", "dial role: hex connect token minted by alphatoken for this client's -addr")
		s1Rate    = flag.Float64("s1-rate", 0, "relay role: sustained unsolicited-S1 forwards per second per upstream direction (0 = unlimited); unknown-association S1s beyond the budget are dropped as drop_s1_ratelimit")
		s1Burst   = flag.Float64("s1-burst", 16, "relay role: unsolicited-S1 burst allowance on top of -s1-rate")
	)
	flag.Parse()
	if err := validateFlags(*batch, *traceLen, *ioBatch, *reuse, *count, *flightLen, *workers, *chainLow, *s1Rate, *s1Burst, *wait, *rotate); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Admission: a keyed server verifies connect tokens before allocating
	// session state; -require-token upgrades that to drop token-less HS1s.
	var admitKeys map[uint8]admission.Key
	if *tokenKeys != "" {
		var err error
		admitKeys, err = parseTokenKeys(*tokenKeys)
		fatalIf(err)
	}
	if *tokenReq && admitKeys == nil {
		fatal(fmt.Errorf("-require-token needs -token-key"))
	}

	var mode packet.Mode
	switch *modeStr {
	case "base":
		mode = packet.ModeBase
	case "C", "c":
		mode = packet.ModeC
	case "M", "m":
		mode = packet.ModeM
	case "CM", "cm":
		mode = packet.ModeCM
	default:
		fatal(fmt.Errorf("unknown mode %q", *modeStr))
	}
	tracer := telemetry.NewTracer(*traceLen)

	// The flight recorder hands each association a span ring and freezes
	// recent history on anomalies (verify failures, adaptive flaps, chain
	// exhaustion warnings). Single-association roles
	// emit into the shared ring; the serve role resolves one ring per
	// accepted association.
	rec := obs.NewRecorder(*flightLen)

	var admitVerifier *admission.Verifier
	if admitKeys != nil {
		var err error
		admitVerifier, err = admission.NewVerifier(admission.VerifierConfig{
			Require: *tokenReq,
			Keys:    admitKeys,
		})
		fatalIf(err)
	}

	cfg := core.Config{
		Suite:            suite.SHA1(),
		Mode:             mode,
		BatchSize:        *batch,
		Reliable:         *reliable,
		ChainLen:         4096,
		ChainLowFraction: *chainLow,
		Tracer:           tracer,
		Spans:            rec.Shared(),
	}

	// One process-wide controller metric group: counters aggregate across
	// associations; the target gauges reflect the most recent decision.
	ctrlMet := &telemetry.ControllerMetrics{}
	adaptCfg := adaptive.Config{Metrics: ctrlMet, Tracer: tracer,
		OnFlap: func(assoc uint64) { rec.Trigger(assoc, obs.CauseAdaptiveFlap) }}

	// Every role registers its metric groups on one exporter; -metrics-addr
	// serves them live, and the exit path prints a final snapshot.
	exp := telemetry.NewExporter()
	exp.SetTracer(tracer)
	if *adaptOn {
		exp.Register("alpha_adaptive", ctrlMet)
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		fatalIf(err)
		fmt.Printf("metrics on http://%s/metrics, traces on http://%s/trace, flight dumps on http://%s/flight\n", ln.Addr(), ln.Addr(), ln.Addr())
		go func() { _ = http.Serve(ln, obs.Handler(exp, rec)) }()
	}
	dumpTelemetry := func() {
		fmt.Println("\ntelemetry snapshot:")
		_ = exp.WriteText(os.Stdout)
	}

	ioOpts := udptransport.IOOptions{Batch: *ioBatch, Prefilter: *prefilter}

	// The reuseport server binds its own socket group, so only bind the
	// shared socket here when a role will actually use it.
	var pc net.PacketConn
	if !(*role == "serve" && *reuse > 0) {
		var err error
		pc, err = net.ListenPacket("udp", *addr)
		fatalIf(err)
	}

	// Preconfigured endpoints skip the handshake entirely (§3.4 static
	// bootstrapping): load the record and wrap the socket directly.
	loadProvisioned := func(peer net.Addr) *udptransport.Conn {
		data, err := os.ReadFile(*provision)
		fatalIf(err)
		var rec core.ProvisionRecord
		fatalIf(json.Unmarshal(data, &rec))
		prov, err := core.FromRecord(cfg, rec)
		fatalIf(err)
		ep, err := core.NewPreconfiguredEndpoint(prov)
		fatalIf(err)
		fmt.Printf("preconfigured association %016x ready (no handshake)\n", ep.Assoc())
		c := udptransport.Wrap(pc, ep, peer, ioOpts)
		logEngine(c.OffloadStatus())
		return c
	}

	switch *role {
	case "serve":
		// Multi-association responder: accepts any number of dialers. With
		// -reuseport N the kernel shards inbound flows across N sockets,
		// each drained by its own batched read loop.
		srvOpts := udptransport.ServerOptions{IO: ioOpts, Workers: *workers, RotateInterval: *rotate, Admission: admitVerifier, Flight: rec}
		if admitVerifier != nil {
			exp.Register("alpha_admission", admitVerifier.Metrics())
			if *tokenReq {
				fmt.Println("admission: connect token required on every new association")
			} else {
				fmt.Println("admission: verifying connect tokens (token-less HS1s still admitted)")
			}
		}
		pcs := []net.PacketConn{pc}
		if *reuse > 0 {
			n := min(*reuse, runtime.GOMAXPROCS(0))
			var err error
			pcs, err = udpio.ListenReusePort("udp", *addr, n)
			fatalIf(err)
			fmt.Printf("SO_REUSEPORT: %d read loops\n", n)
		}
		srv := udptransport.NewServerWith(cfg, srvOpts, pcs...)
		defer srv.Close()
		logEngine(srv.OffloadStatus())
		exp.Register("alpha_transport", srv.Telemetry())
		// Endpoint metrics aggregate across sessions at scrape time.
		exp.Register("alpha_endpoint", telemetry.WalkerFunc(func(v telemetry.Visitor) {
			srv.EndpointTelemetry().Walk(v)
		}))
		// Per-association families materialize at scrape time, so session
		// churn needs no registration bookkeeping.
		if *perAssoc {
			exp.RegisterDynamic(srv.SessionGroups("alpha_session"))
		}
		fmt.Printf("serving on %s\n", *addr)
		deadline := time.After(*wait)
		for {
			acceptCh := make(chan *udptransport.Session, 1)
			go func() {
				if sess, err := srv.Accept(); err == nil {
					acceptCh <- sess
				}
			}()
			select {
			case sess := <-acceptCh:
				fmt.Printf("accepted association %016x from %s\n", sess.Endpoint().Assoc(), sess.Peer())
				if *adaptOn {
					sess.EnableAdaptive(adaptCfg)
				}
				go func() {
					for ev := range sess.Events() {
						if ev.Kind == core.EventDelivered {
							fmt.Printf("[%016x] verified: %q\n", sess.Endpoint().Assoc(), ev.Payload)
						}
					}
				}()
			case <-deadline:
				fmt.Printf("done: served %d associations\n", srv.Sessions())
				dumpTelemetry()
				return
			}
		}

	case "listen":
		fmt.Printf("listening on %s\n", *addr)
		var conn *udptransport.Conn
		if *provision != "" {
			conn = loadProvisioned(nil)
		} else {
			var err error
			conn, err = udptransport.Listen(pc, cfg, *wait, ioOpts)
			fatalIf(err)
			logEngine(conn.OffloadStatus())
		}
		defer conn.Close()
		registerConn(exp, conn)
		if *adaptOn {
			conn.EnableAdaptive(adaptCfg)
		}
		fmt.Printf("association established with %s\n", conn.Peer())
		deadline := time.After(*wait)
		for {
			select {
			case ev := <-conn.Events():
				switch ev.Kind {
				case core.EventDelivered:
					fmt.Printf("verified payload (seq %d idx %d): %q\n", ev.Seq, ev.MsgIndex, ev.Payload)
				case core.EventDropped:
					fmt.Printf("dropped packet: %v\n", ev.Err)
				}
			case <-deadline:
				st := conn.Endpoint().Stats()
				fmt.Printf("done: delivered %d, dropped %d\n", st.Delivered, st.Dropped)
				dumpTelemetry()
				return
			}
		}

	case "dial":
		if *peer == "" {
			fatal(fmt.Errorf("-peer required for dial"))
		}
		peerAddr, err := net.ResolveUDPAddr("udp", *peer)
		fatalIf(err)
		// Stamp a connect token into the HS1: either one minted out of
		// band by alphatoken (-token) or, with the shared key at hand,
		// minted here bound to this handshake's anchors.
		switch {
		case *tokenHex != "":
			tok, err := hex.DecodeString(*tokenHex)
			fatalIf(err)
			cfg.TokenSource = func(sig, ack []byte) ([]byte, error) { return tok, nil }
		case admitKeys != nil:
			var keyID uint8
			for id := range admitKeys {
				keyID = id
				break
			}
			issuer, err := admission.NewIssuer(keyID, admitKeys[keyID])
			fatalIf(err)
			cfg.TokenSource = func(sig, ack []byte) ([]byte, error) {
				udp, ok := pc.LocalAddr().(*net.UDPAddr)
				if !ok {
					return nil, fmt.Errorf("cannot derive client address from %v", pc.LocalAddr())
				}
				return issuer.Mint(time.Now(), time.Minute, udp.IP, udp.Port, sig, ack)
			}
		}
		var conn *udptransport.Conn
		if *provision != "" {
			conn = loadProvisioned(peerAddr)
		} else {
			conn, err = udptransport.Dial(pc, peerAddr, cfg, 10*time.Second, ioOpts)
			fatalIf(err)
			logEngine(conn.OffloadStatus())
		}
		defer conn.Close()
		registerConn(exp, conn)
		if *adaptOn {
			conn.EnableAdaptive(adaptCfg)
		}
		fmt.Printf("association established with %s\n", *peer)
		for i := 0; i < *count; i++ {
			payload := fmt.Sprintf("%s #%d", *send, i)
			id, err := conn.Send([]byte(payload))
			fatalIf(err)
			fmt.Printf("sent message %d: %q\n", id, payload)
		}
		conn.Flush()
		acked := 0
		deadline := time.After(*wait)
		for acked < *count && *reliable {
			select {
			case ev := <-conn.Events():
				switch ev.Kind {
				case core.EventAcked:
					acked++
					fmt.Printf("acked message %d (%d/%d)\n", ev.MsgID, acked, *count)
				case core.EventNacked:
					fmt.Printf("nacked message %d\n", ev.MsgID)
				case core.EventSendFailed:
					fmt.Printf("send failed for message %d: %v\n", ev.MsgID, ev.Err)
					acked++
				}
			case <-deadline:
				fmt.Printf("timeout waiting for acks (%d/%d)\n", acked, *count)
				dumpTelemetry()
				return
			}
		}
		fmt.Println("all messages acknowledged")
		dumpTelemetry()

	case "relay":
		if *aAddr == "" || *bAddr == "" {
			fatal(fmt.Errorf("-a and -b required for relay"))
		}
		a, err := net.ResolveUDPAddr("udp", *aAddr)
		fatalIf(err)
		b, err := net.ResolveUDPAddr("udp", *bAddr)
		fatalIf(err)
		rcfg := relay.Config{Tracer: tracer, Spans: rec.Shared(),
			UnsolicitedS1Rate: *s1Rate, UnsolicitedS1Burst: *s1Burst}
		r := udptransport.NewRelay(pc, a, b, rcfg, ioOpts)
		if *s1Rate > 0 {
			fmt.Printf("rate limiting unsolicited S1s to %.3g/s (burst %.3g) per upstream\n", *s1Rate, *s1Burst)
		}
		logEngine(r.OffloadStatus())
		exp.Register("alpha_relay", r.Telemetry())
		exp.Register("alpha_relay_transport", r.TransportTelemetry())
		if *anchorsF != "" {
			data, err := os.ReadFile(*anchorsF)
			fatalIf(err)
			var anchors core.AnchorSet
			fatalIf(json.Unmarshal(data, &anchors))
			ast, err := suite.ByID(suite.ID(anchors.Suite))
			fatalIf(err)
			fatalIf(r.Seed(ast, anchors))
			fmt.Printf("seeded with anchors for association %016x\n", anchors.Assoc)
		}
		fmt.Printf("relaying %s <-> %s via %s\n", *aAddr, *bAddr, *addr)
		time.Sleep(*wait)
		st := r.Stats()
		fmt.Printf("relay done: forwarded %d, dropped %d (unsolicited %d, bad payload %d)\n",
			st.Forwarded, st.Dropped, st.Unsolicited, st.BadPayload)
		dumpTelemetry()
		r.Close()

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// registerConn exports a single-association connection: its engine's
// metrics, and the events the transport had to discard because nothing was
// draining Events (alpha_conn_event_drops; a server counts the same under
// alpha_transport_event_drops).
func registerConn(exp *telemetry.Exporter, conn *udptransport.Conn) {
	exp.Register("alpha_endpoint", conn.Endpoint().Telemetry())
	exp.Register("alpha_conn", telemetry.WalkerFunc(func(v telemetry.Visitor) {
		v.Counter("event_drops", conn.EventDrops())
	}))
}

// logEngine says which offload features the kernel probe granted the
// role's socket (neither: the batched or the portable engine). Each role
// builds one transport, so it prints once per process.
func logEngine(st udpio.OffloadStatus) {
	fmt.Fprintf(os.Stderr, "io engine: gso=%v gro=%v\n", st.GSO, st.GRO)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}
