package alpha

import (
	"testing"

	"alpha/internal/analytic"
	"alpha/internal/relay"
	"alpha/internal/suite"
)

// TestCryptoCallsPerMessage pins what the data path hashes. The ledger's
// three data workloads run socket-less, signer → relays → verifier, with a
// suite.Counting on every node, and the hash and MAC calls per message of
// each node must be exactly the figures below: they are the values of the
// tree before the data path was rewritten to parse in place and reuse
// exchange slabs, and a rewrite of buffers may not change what is hashed.
// (bench/ reports the same counts for the two endpoints together as
// suite.hash_calls_per_op / mac_calls_per_op: 9 + 2 on pingpong_base_64.)
//
// Each row also prints the paper's Table 1 prediction (internal/analytic,
// on-line part: chains are generated at association set-up here) beside the
// measurement. Model and measurement count different things in places; the
// test records each difference with its reason rather than bending either.
// The _k4 row is the §4.1.3 storage trade-off measured: chains that keep one
// element in four resident pay the rest back in on-line hashes.
func TestCryptoCallsPerMessage(t *testing.T) {
	type perNode struct{ hashes, macs float64 }
	k4 := workloadNamed("pingpong_base_64")
	k4.name += "_k4"
	k4.cfg.CheckpointInterval = 4
	for _, tc := range []struct {
		w        lineWorkload
		model    analytic.ModeName
		signer   perNode
		relay    perNode // each relay
		verifier perNode
		// why measurement and model differ, per role (signer, relay, verifier)
		why [3]string
	}{
		{
			w: workloadNamed("pingpong_base_64"), model: analytic.ALPHA,
			signer: perNode{4, 1}, relay: perNode{7, 1}, verifier: perNode{5, 1},
			why: [3]string{
				"the A1 walker steps over the interleaved A2 key element (2 steps, model 1) and the A2 key is linked to the A1 element (+1)",
				"four disclosed elements are checked, not one: S1 and A1 by walkers that each step over an interleaved key element (2+2), S2 and A2 keys by a link to those (1+1)",
				"the S1 walker steps over the interleaved S2 key element (2 steps, model 1) and the S2 key is linked to the S1 element (+1)",
			},
		},
		{
			w: k4, model: analytic.ALPHA,
			signer: perNode{5.5, 1}, relay: perNode{7, 1}, verifier: perNode{6.5, 1},
			why: [3]string{
				"as pingpong_base_64, plus the signature chain's recomputation: with one element in 4 resident, 3 of every 4 of Table 1's 2 HC-create hashes per message (the two chain elements an exchange discloses) are hashed on-line (+1.5)",
				"relays own no chain, so checkpointing moves nothing here: as pingpong_base_64",
				"as pingpong_base_64, plus the acknowledgment chain's recomputation: with one element in 4 resident, 3 of every 4 of Table 1's 2 HC-create hashes per message are hashed on-line (+1.5)",
			},
		},
		{
			w: workloadNamed("stream_c16_1k"), model: analytic.ALPHAC,
			signer: perNode{2.0 / 16, 1}, relay: perNode{5.0 / 16, 1}, verifier: perNode{3.0 / 16, 1},
			why: [3]string{
				"unreliable workload: the model's per-message ack check never runs (-1); the A1 walker takes 2 steps per exchange (+1/16)",
				"no acks to check (-1); per exchange the S1 and A1 walkers take 2 steps each and the S2 key is linked once, 5 steps where the model has 1 (+4/16)",
				"no pre-(n)acks to build (-2); per exchange the S1 walker takes 2 steps and the S2 key is linked once (+2/16)",
			},
		},
		{
			w: workloadNamed("merkle_m64_rel"), model: analytic.ALPHAM,
			signer: perNode{4 + 2.0/64, 0}, relay: perNode{4 + 5.0/64, 0}, verifier: perNode{6 + 1.0/64, 0},
			why: [3]string{
				"the tree costs 127 hashes per 64 messages, its top node never computed, where the model has 3-1/n per message; an A2 is hashed only up to where its path meets the last one verified, so 64 openings in order cost 128 hashes, 2 per message where the model has 2+log2 n; per exchange the A2 key is linked once and the A1 walker takes 2 steps (+3/64, model 1/64)",
				"S2s and A2s are hashed only up to where their paths meet the last ones verified: 64 of each in order cost 127 and 128 hashes where the model has 1+log2 n and 2+log2 n per message; per exchange the S1 and A1 walkers take 2 steps each and the S2 and A2 keys are linked once each (+6/64, model 1/64)",
				"an S2 is hashed only up to where its path meets the last one verified: 64 in order cost 127 hashes where the model has 1+log2 n per message; the AMT costs 255 hashes per 64, its two trees' top nodes never computed, where the model has 4-1/n; per exchange the S1 walker takes 2 steps and the S2 key is linked once (+3/64, model 1/64)",
			},
		},
	} {
		t.Run(tc.w.name, func(t *testing.T) {
			const warm, rounds = 2, 8
			n := max(tc.w.cfg.BatchSize, 1)
			counters := make([]*suite.Counting, 2+tc.w.relays) // signer, relays..., verifier
			for i := range counters {
				counters[i] = suite.NewCounting(suite.SHA1())
			}
			cfg := tc.w.cfg
			cfg.ChainLen, cfg.FlushDelay = 2*(warm+rounds)+8, -1
			cfg.Suite = counters[0]
			signer := endpoint(t, cfg)
			cfg.Suite = counters[len(counters)-1]
			verifier := endpoint(t, cfg)
			relays := make([]*relay.Relay, tc.w.relays)
			for i := range relays {
				relays[i] = relay.New(relay.Config{SuiteOverride: counters[1+i]})
			}
			l := newLine(t, signer, verifier, relays...)
			payload := make([]byte, tc.w.payload)
			for i := 0; i < warm; i++ {
				l.exchange(n, payload)
			}
			start := make([]suite.Counts, len(counters))
			for i, c := range counters {
				start[i] = c.Snapshot()
			}
			l.delivered, l.acked = 0, 0
			for i := 0; i < rounds; i++ {
				l.exchange(n, payload)
			}
			msgs := float64(rounds * n)
			if l.delivered != rounds*n || (cfg.Reliable && l.acked != rounds*n) {
				t.Fatalf("delivered %d and acked %d of %d messages", l.delivered, l.acked, rounds*n)
			}

			// check compares the nodes counters[first:first+count] with want.
			check := func(role string, model analytic.Role, why string, want perNode, first, count int) {
				t.Helper()
				ops := analytic.Table1(tc.model, model, n)
				online := ops.Total() - ops.HCCreate
				for i := first; i < first+count; i++ {
					d := counters[i].Snapshot().Sub(start[i])
					got := perNode{float64(d.Hashes) / msgs, float64(d.MACs) / msgs}
					t.Logf("%-8s %7.4f hashes + %.0f MACs per message; Table 1 on-line model %7.4f; delta %+.4f (%s)",
						role, got.hashes, got.macs, online, got.hashes+got.macs-online, why)
					if got != want {
						t.Errorf("%s: %.4f hashes + %.4f MACs per message, want %.4f + %.4f", role, got.hashes, got.macs, want.hashes, want.macs)
					}
				}
			}
			check("signer", analytic.Signer, tc.why[0], tc.signer, 0, 1)
			check("relay", analytic.RelayRole, tc.why[1], tc.relay, 1, tc.w.relays)
			check("verifier", analytic.Verifier, tc.why[2], tc.verifier, 1+tc.w.relays, 1)
		})
	}
}
