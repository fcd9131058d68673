package main

import (
	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/suite"
)

// workload is one fixed set of inputs. Sizes are per repetition; a run is as
// many repetitions as fit the -seconds budget (never fewer than minReps).
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	mode     packet.Mode
	batch    int
	reliable bool
	payload  int // bytes per message
	relays   int // verifying relays in a line between signer and verifier
	chainLen int
	window   int // operations the closed loop keeps in flight
	ops      int // timed operations per repetition
	churn    bool
}

// warmup is the untimed share of ops run before the timed window.
const warmupShare = 10 // percent

var workloads = []*workload{
	{
		name: "stream_c16_1k",
		why:  "ALPHA-C n=16, 1 KiB, one relay: payload MACs, 17-datagram bursts and the relay's per-S2 verify dominate (paper Fig. 5/6 bulk case)",
		mode: packet.ModeC, batch: 16, payload: 1024, relays: 1,
		chainLen: 1 << 16, window: 64, ops: 192000,
	},
	{
		name: "pingpong_base_64",
		why:  "base mode, reliable, 64 B, three relays: one datagram per wake-up, so per-packet cost is nearly all the work and batching cannot help",
		mode: packet.ModeBase, batch: 1, reliable: true, payload: 64, relays: 3,
		chainLen: 1 << 17, window: 8, ops: 36000,
	},
	{
		name: "merkle_m64_rel",
		why:  "ALPHA-M n=64 with AMT acks, 1 KiB, one relay: Merkle build/proofs and an A2 back per S2, so a gain bought for ALPHA-C at ALPHA-M's expense shows",
		mode: packet.ModeM, batch: 64, reliable: true, payload: 1024, relays: 1,
		chainLen: 1 << 13, window: 128, ops: 115200,
	},
	{
		name: "churn_tokened",
		why:  "tokened session birth under a 10:1 hostile flood on one Server: chain generation, admission, prefilter and expiry do the work, payload crypto none",
		mode: packet.ModeBase, batch: 1, reliable: true, payload: 64,
		chainLen: 64, window: 32, ops: 16000, churn: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns a copy of w with ops operations per repetition (rounded up
// to whole batches so no exchange waits for the flush timer).
func (w *workload) scaled(ops int) *workload {
	c := *w
	if rem := ops % c.batch; rem != 0 {
		ops += c.batch - rem
	}
	c.ops = ops
	return &c
}

// quick returns the -quick variant of w: quickOps operations per repetition
// and chains just long enough for them, so a smoke run of every code path
// takes a fraction of a second.
func (w *workload) quick() *workload {
	c := w.scaled(quickOps)
	c.chainLen = min(c.chainLen, 1<<11)
	return c
}

func (w *workload) warmup() int {
	n := w.ops * warmupShare / 100
	if rem := n % w.batch; rem != 0 {
		n += w.batch - rem
	}
	return n
}

// coreConfig is the endpoint configuration of the workload; st lets the
// traced run slot in a counting or timing suite.
func (w *workload) coreConfig(st suite.Suite) core.Config {
	return core.Config{
		Suite:     st,
		Mode:      w.mode,
		Reliable:  w.reliable,
		ChainLen:  w.chainLen,
		BatchSize: w.batch,
	}
}
