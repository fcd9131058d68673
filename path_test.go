package alpha

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/relay"
	"alpha/internal/telemetry"
)

// lineWorkload is one of the ledger's data workloads (bench/workloads.go)
// minus sockets: the mode, batch, reliability, payload and relay count of a
// signer → relays → verifier line. TestCryptoCallsPerMessage counts what
// each node hashes on them and BenchmarkPath times them.
type lineWorkload struct {
	name    string
	cfg     core.Config
	relays  int
	payload int
}

var lineWorkloads = []lineWorkload{
	{"stream_c16_1k", core.Config{Mode: packet.ModeC, BatchSize: 16}, 1, 1024},
	{"pingpong_base_64", core.Config{Mode: packet.ModeBase, Reliable: true}, 3, 64},
	{"merkle_m64_rel", core.Config{Mode: packet.ModeM, BatchSize: 64, Reliable: true}, 1, 1024},
}

func workloadNamed(name string) lineWorkload {
	for _, w := range lineWorkloads {
		if w.name == name {
			return w
		}
	}
	panic("no line workload " + name)
}

// line is an established signer → relays → verifier path that counts what
// reaches the two ends.
type line struct {
	path.Path[core.Event]
	tb               testing.TB
	signer           *core.Endpoint
	delivered, acked int
}

func endpoint(tb testing.TB, cfg core.Config) *core.Endpoint {
	tb.Helper()
	e, err := core.NewEndpoint(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// newLine puts the relays between signer and verifier and runs the
// handshake across them. A relay that drops anything fails the test.
func newLine(tb testing.TB, signer, verifier *core.Endpoint, relays ...*relay.Relay) *line {
	tb.Helper()
	l := &line{tb: tb, signer: signer}
	l.Path = path.Path[core.Event]{
		Now:  time.Unix(1_700_000_000, 0),
		Ends: [2]path.Node[core.Event]{signer, verifier},
		On: func(_ path.Side, ev core.Event) {
			switch ev.Kind {
			case core.EventDelivered:
				l.delivered++
			case core.EventAcked:
				l.acked++
			}
		},
	}
	for _, r := range relays {
		l.Hops = append(l.Hops, func(now time.Time, upstream int, raw []byte) []byte {
			d := r.ProcessFrom(now, upstream, raw)
			if d.Verdict != relay.Forward {
				tb.Fatalf("relay dropped honest traffic: %v", d.Reason)
			}
			return d.Forwarded(raw)
		})
	}
	hs1, err := signer.StartHandshake(l.Now)
	if err != nil {
		tb.Fatal(err)
	}
	if err := l.Carry(path.A, 0, hs1); err != nil {
		tb.Fatal(err)
	}
	l.exchange(0, nil) // settles the handshake
	if !signer.Established() || !verifier.Established() {
		tb.Fatal("handshake did not establish")
	}
	return l
}

// exchange sends n messages, a whole batch, and settles the exchange.
func (l *line) exchange(n int, payload []byte) {
	for i := 0; i < n; i++ {
		if _, err := l.signer.Send(l.Now, payload); err != nil {
			l.tb.Fatal(err)
		}
	}
	if err := l.Settle(64); err != nil {
		l.tb.Fatal(err)
	}
}

// benchExchanges times b.N exchanges of n messages of size bytes between
// two endpoints.
func benchExchanges(b *testing.B, cfg core.Config, n, size int) {
	l := newLine(b, endpoint(b, cfg), endpoint(b, cfg))
	payload := make([]byte, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.exchange(n, payload)
	}
}

// BenchmarkPath is the socket-less path figure: each of the ledger's data
// workloads on a line of endpoints and relays on a manual clock, with every
// slice handed back as the transport hands it back. An op is one message.
// Run it with -cpu 1: the line runs on one goroutine, and the figure is
// meant for parent/change pairs that a loopback run is too noisy to decide.
func BenchmarkPath(b *testing.B) {
	for _, w := range lineWorkloads {
		b.Run(w.name, func(b *testing.B) {
			n := max(w.cfg.BatchSize, 1)
			// Receiver exchanges retire by eviction, so the free lists are
			// warm only after MaxRxExchanges of them.
			warm, exchanges := core.MaxRxExchanges+16, (b.N+n-1)/n
			cfg := w.cfg
			cfg.ChainLen, cfg.FlushDelay = 2*(warm+exchanges)+8, -1
			relays := make([]*relay.Relay, w.relays)
			for i := range relays {
				relays[i] = relay.New(relay.Config{})
			}
			l := newLine(b, endpoint(b, cfg), endpoint(b, cfg), relays...)
			payload := make([]byte, w.payload)
			for i := 0; i < warm; i++ {
				l.exchange(n, payload)
			}
			// allocs/op is a whole number; allocs/msg is not rounded.
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < exchanges; i++ {
				l.exchange(n, payload)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(exchanges*n), "allocs/msg")
		})
	}
}

// TestLostS2UnderLoad pins §3.2.2's promise under a full exchange table: a
// reliable S2 lost once is retransmitted and delivered although more than
// MaxRxExchanges (and a relay's MaxExchanges) newer exchanges completed
// while it was missing. Every hop keeps the incomplete exchange and evicts
// completed ones first. The S2 is lost either as it leaves the signer, or
// on the last link, after every relay verified it: a relay holds an
// exchange of a reliable association until it sees the verifier's ack, not
// merely the S2.
func TestLostS2UnderLoad(t *testing.T) {
	const exchanges = 200
	shapes := []struct {
		name string
		cfg  core.Config
	}{
		{"base", core.Config{Mode: packet.ModeBase, Reliable: true}},
		{"C-16", core.Config{Mode: packet.ModeC, BatchSize: 16, Reliable: true}},
		{"M-64", core.Config{Mode: packet.ModeM, BatchSize: 64, Reliable: true}},
	}
	for _, sh := range shapes {
		for relays := 0; relays <= 2; relays++ {
			links := []int{0}
			if relays > 0 {
				links = append(links, relays) // the last link
			}
			for _, at := range links {
				t.Run(fmt.Sprintf("%s/relays=%d/link=%d", sh.name, relays, at), func(t *testing.T) {
					t.Parallel()
					cfg := sh.cfg
					cfg.ChainLen = 2*exchanges + 64
					hops := make([]*relay.Relay, relays)
					for i := range hops {
						hops[i] = relay.New(relay.Config{})
					}
					signer, verifier := endpoint(t, cfg), endpoint(t, cfg)
					l := newLine(t, signer, verifier, hops...)
					lost := false
					l.Tap = func(from path.Side, link int, raw []byte) [][]byte {
						if !lost && from == path.A && link == at && packet.Type(raw[3]) == packet.TypeS2 {
							lost = true
							return nil
						}
						return [][]byte{raw}
					}
					n := max(cfg.BatchSize, 1)
					payload := make([]byte, 64)
					for i := 0; i < exchanges*n; i++ {
						if _, err := signer.Send(l.Now, payload); err != nil {
							t.Fatal(err)
						}
					}
					// Every other exchange completes at once; the one that
					// lost its S2 waits for the retransmission timer.
					if err := l.Settle(1 << 14); err != nil {
						t.Fatal(err)
					}
					for end := l.Now.Add(30 * time.Second); l.Now.Before(end); {
						if err := l.Run(1<<14, 10*time.Millisecond); err != nil {
							t.Fatal(err)
						}
					}
					if want := exchanges * n; l.delivered != want || l.acked != want {
						t.Errorf("delivered %d and acked %d of %d messages", l.delivered, l.acked, want)
					}
					if got := signer.Stats().Retransmits; got != 1 {
						t.Errorf("signer retransmitted %d times, want 1", got)
					}
					if got := verifier.Telemetry().DropReasons[telemetry.ReasonUnsolicited].Load(); got != 0 {
						t.Errorf("verifier dropped %d S2s as unsolicited", got)
					}
					for i, r := range hops {
						if got := r.Stats().Unsolicited; got != 0 {
							t.Errorf("relay %d dropped %d S2s as unsolicited", i, got)
						}
					}
				})
			}
		}
	}
}
