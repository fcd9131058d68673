// Benchmarks mirroring the paper's evaluation, one benchmark family per
// table/figure. `go test -bench=. -benchmem` regenerates the raw numbers;
// cmd/alphabench formats them as the paper's tables with the analytic
// models alongside.
package alpha

import (
	"bytes"
	"fmt"
	"testing"

	"alpha/internal/analytic"
	"alpha/internal/baseline"
	"alpha/internal/core"
	"alpha/internal/hashchain"
	"alpha/internal/merkle"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/relay"
	"alpha/internal/suite"
)

// BenchmarkTable1 measures full protected exchanges per mode: the cost that
// Table 1 decomposes into hash operations.
func BenchmarkTable1(b *testing.B) {
	cases := []struct {
		name  string
		mode  packet.Mode
		batch int
	}{
		{"ALPHA/n=1", packet.ModeBase, 1},
		{"ALPHA-C/n=16", packet.ModeC, 16},
		{"ALPHA-M/n=16", packet.ModeM, 16},
		{"ALPHA-CM/n=16", packet.ModeCM, 16},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := core.Config{Mode: c.mode, Reliable: true, ChainLen: 2 * (b.N + 16), BatchSize: c.batch, FlushDelay: -1}
			benchExchanges(b, cfg, c.batch, 512)
			b.ReportMetric(float64(b.N*c.batch), "msgs")
		})
	}
}

// BenchmarkTable2 reports the live buffer bytes behind Table 2's columns.
func BenchmarkTable2(b *testing.B) {
	for _, mode := range []packet.Mode{packet.ModeC, packet.ModeM} {
		name := packet.Mode(mode).String()
		b.Run(fmt.Sprintf("%s/n=64", name), func(b *testing.B) {
			b.ReportAllocs()
			var verifierBytes int
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Mode: mode, ChainLen: 64, BatchSize: 64, FlushDelay: -1, MaxOutstanding: 1}
				v := endpoint(b, cfg)
				l := newLine(b, endpoint(b, cfg), v)
				// Hold the A1 so the verifier's buffers stay at their peak.
				l.Tap = path.Hold(packet.TypeA1, 0, nil)
				l.exchange(64, bytes.Repeat([]byte{1}, 1024))
				verifierBytes, _ = v.RxBufferedBytes()
			}
			b.ReportMetric(float64(verifierBytes), "verifier-bytes")
		})
	}
}

// BenchmarkTable3 reports the acknowledgment-state bytes behind Table 3.
func BenchmarkTable3(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("reliable/n=%d", n), func(b *testing.B) {
			mode := packet.ModeBase
			if n > 1 {
				mode = packet.ModeC
			}
			b.ReportAllocs()
			var ackBytes int
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Mode: mode, Reliable: true, ChainLen: 64, BatchSize: n, FlushDelay: -1, MaxOutstanding: 1}
				v := endpoint(b, cfg)
				l := newLine(b, endpoint(b, cfg), v)
				// The A1 carries the pre-(n)acks: the verifier has built its
				// acknowledgment state once it is sent.
				l.Tap = path.Hold(packet.TypeA1, 0, nil)
				l.exchange(n, []byte("x"))
				_, ackBytes = v.RxBufferedBytes()
			}
			b.ReportMetric(float64(ackBytes), "verifier-ack-bytes")
		})
	}
}

// BenchmarkTable4 times the individual signature steps and the asymmetric
// baselines of Table 4.
func BenchmarkTable4(b *testing.B) {
	b.Run("ALPHA/full-signature", func(b *testing.B) {
		cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 2 * (b.N + 8), FlushDelay: -1}
		benchExchanges(b, cfg, 1, 512)
	})
	b.Run("SHA1/20B", func(b *testing.B) {
		s := suite.SHA1()
		in := bytes.Repeat([]byte{1}, 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Hash(in)
		}
	})
	rsa, err := baseline.NewRSASigner(1024)
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte{2}, 512)
	sig, _ := rsa.Sign(msg)
	b.Run("RSA1024/sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rsa.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RSA1024/verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rsa.Verify(msg, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	dsa, err := baseline.NewDSASigner()
	if err != nil {
		b.Fatal(err)
	}
	dsig, _ := dsa.Sign(msg)
	b.Run("DSA1024/sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dsa.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DSA1024/verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dsa.Verify(msg, dsig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable5 times digests over the paper's two input sizes per suite.
func BenchmarkTable5(b *testing.B) {
	for _, s := range []suite.Suite{suite.SHA1(), suite.SHA256(), suite.MMO()} {
		for _, size := range []int{20, 1024} {
			in := bytes.Repeat([]byte{3}, size)
			b.Run(fmt.Sprintf("%s/%dB", s.Name(), size), func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.Hash(in)
				}
			})
		}
	}
}

// BenchmarkTable6 times ALPHA-M S2 verification across tree sizes: the
// "Processing" column of Table 6, measured on the real verifier path.
func BenchmarkTable6(b *testing.B) {
	s := suite.SHA1()
	for _, leaves := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			key := s.Hash([]byte("element"))
			msgs := make([][]byte, leaves)
			payload := analytic.PerPacketPayload(leaves, 1024, s.Size())
			for i := range msgs {
				msgs[i] = bytes.Repeat([]byte{byte(i)}, payload)
			}
			tree, err := merkle.Build(s, key, msgs)
			if err != nil {
				b.Fatal(err)
			}
			proofs := make([][][]byte, leaves)
			for i := range proofs {
				if proofs[i], err = tree.Proof(i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % leaves
				if !merkle.Verify(s, key, tree.Root(), msgs[j], j, leaves, proofs[j]) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

// BenchmarkFig5 exercises the machinery behind Figure 5: building the tree
// and producing every proof for a batch (signer side of one S1's worth of
// data).
func BenchmarkFig5(b *testing.B) {
	s := suite.SHA1()
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			key := s.Hash([]byte("k"))
			msgs := make([][]byte, n)
			for i := range msgs {
				msgs[i] = bytes.Repeat([]byte{byte(i)}, 256)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree, err := merkle.Build(s, key, msgs)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if _, err := tree.Proof(j); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(analytic.STotal(n, 1280, s.Size())), "signed-bytes-per-S1")
		})
	}
}

// BenchmarkFig6 reports Figure 6's overhead ratio as a benchmark metric
// while timing the analytic sweep itself.
func BenchmarkFig6(b *testing.B) {
	for _, spacket := range []int{128, 512, 1280} {
		b.Run(fmt.Sprintf("packet=%dB", spacket), func(b *testing.B) {
			b.ReportAllocs()
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = analytic.OverheadRatio(1024, spacket, 20)
			}
			b.ReportMetric(ratio, "bytes-per-signed-byte@n=1024")
		})
	}
}

// BenchmarkWMNRelayThroughput measures a relay's verifiable S2 throughput —
// the quantity §4.1.2 bounds at ~20 Mbit/s for 2008 mesh routers.
// b.SetBytes makes `go test -bench` report MB/s.
func BenchmarkWMNRelayThroughput(b *testing.B) {
	b.Run("ALPHA-C", func(b *testing.B) { benchRelayS2s(b, packet.ModeC, nil) })
	b.Run("ALPHA-M", func(b *testing.B) { benchRelayS2s(b, packet.ModeM, nil) })
}

// BenchmarkRelaySpans measures the relay verification path with hop-by-hop
// exchange tracing off and on — the pair BENCH_obs.json records to hold the
// span emit path to its <=3% throughput budget. ALPHA-C only: the mode with
// the hottest per-packet relay work.
func BenchmarkRelaySpans(b *testing.B) {
	b.Run("tracing=off", func(b *testing.B) { benchRelayS2s(b, packet.ModeC, nil) })
	b.Run("tracing=on", func(b *testing.B) { benchRelayS2s(b, packet.ModeC, obs.NewSpanRing(8192)) })
}

// benchRelayS2s times one relay verifying S2s. Each exchange of 20 messages
// crosses the relay up to its S2s, which are held back before it; the timed
// region is the relay verifying them, after which they go on to the verifier.
func benchRelayS2s(b *testing.B, mode packet.Mode, spans *obs.SpanRing) {
	const batch, payloadSize = 20, 1024
	cfg := core.Config{Mode: mode, ChainLen: 2 * (b.N/batch + 8), BatchSize: batch, FlushDelay: -1}
	r := relay.New(relay.Config{Spans: spans})
	l := newLine(b, endpoint(b, cfg), endpoint(b, cfg), r)
	var s2s [][]byte
	l.Tap = path.Hold(packet.TypeS2, 0, &s2s)
	payload := bytes.Repeat([]byte{0x77}, payloadSize)
	b.SetBytes(payloadSize)
	b.ReportAllocs()
	b.ResetTimer()
	for verified := 0; verified < b.N; verified += len(s2s) {
		b.StopTimer()
		s2s = s2s[:0]
		l.exchange(batch, payload)
		b.StartTimer()
		for _, raw := range s2s {
			if d := r.Process(l.Now, raw); d.Verdict != relay.Forward {
				b.Fatalf("relay dropped S2: %v", d.Reason)
			}
		}
		b.StopTimer()
		for _, raw := range s2s {
			if err := l.Carry(path.A, 1, raw); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkSuiteOps measures the primitive operations underneath every
// protocol path — one digest, one MAC, one hash-chain step — through the
// *Into APIs with a caller-owned destination buffer. The interesting column
// is allocs/op: Hash and chain-step must be zero for SHA-1 and SHA-256.
// (MMO re-keys AES on every block, so its allocations are inherent to the
// construction, not to the call path.)
func BenchmarkSuiteOps(b *testing.B) {
	for _, s := range []suite.Suite{suite.SHA1(), suite.SHA256(), suite.MMO()} {
		in := bytes.Repeat([]byte{5}, 20)
		key := bytes.Repeat([]byte{6}, s.Size())
		b.Run(s.Name()+"/Hash", func(b *testing.B) {
			dst := make([]byte, 0, s.Size())
			var parts [1][]byte
			parts[0] = in
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.HashInto(dst[:0], parts[:]...)
			}
		})
		b.Run(s.Name()+"/MAC", func(b *testing.B) {
			dst := make([]byte, 0, s.Size())
			var parts [1][]byte
			parts[0] = in
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.MACInto(dst[:0], key, parts[:]...)
			}
		})
		// Base mode: every MAC under a key never seen, where /MAC above is
		// the batch case (the key of the call before).
		b.Run(s.Name()+"/MAC-fresh-key", func(b *testing.B) {
			dst := make([]byte, 0, s.Size())
			fresh := append([]byte(nil), key...)
			var parts [1][]byte
			parts[0] = in
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh[i&7]++
				dst = s.MACInto(dst[:0], fresh, parts[:]...)
			}
		})
		b.Run(s.Name()+"/chain-step", func(b *testing.B) {
			tag := hashchain.TagS1
			cur := append(make([]byte, 0, s.Size()), key...)
			scratch := make([]byte, 0, s.Size())
			var parts [2][]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parts[0] = tag
				parts[1] = cur
				scratch = s.HashInto(scratch[:0], parts[:]...)
				cur, scratch = scratch, cur
			}
		})
	}
}

// BenchmarkWSN measures the MMO hash on the paper's two WSN input sizes
// (§4.1.3: 16 B and 84 B).
func BenchmarkWSN(b *testing.B) {
	s := suite.MMO()
	for _, size := range []int{16, 84} {
		in := bytes.Repeat([]byte{4}, size)
		b.Run(fmt.Sprintf("MMO/%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Hash(in)
			}
		})
	}
	b.Run("ALPHA-C/n=5/100B-messages", func(b *testing.B) {
		cfg := core.Config{Suite: s, Mode: packet.ModeC, Reliable: true, ChainLen: 2 * (b.N + 8), BatchSize: 5, FlushDelay: -1}
		benchExchanges(b, cfg, 5, 100)
		b.ReportMetric(float64(5*b.N), "msgs")
	})
}
