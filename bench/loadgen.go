package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"alpha/internal/core"
)

// link is what the load generator needs from one end of an association. The
// real udptransport.Conn and the traced run's pump node both provide it.
type link interface {
	Send(payload []byte) (uint64, error)
	Events() <-chan core.Event
}

// fillSpan is how many distinct fill offsets the seeded payload filler has:
// message i carries fill[i%fillSpan : i%fillSpan+size-8] after its 8-byte
// sequence number, so consecutive payloads differ and the expected bytes of
// any sequence number are recomputable without storing them.
const fillSpan = 251

// per-operation oracle bits.
const (
	opDelivered = 1 << iota // the verifier surfaced the exact payload
	opDone                  // the operation completed (delivered, or acked when reliable)
	opDuplicate             // the verifier surfaced it more than once
)

// loadgen is the closed-loop generator and drain of the three data
// workloads: one goroutine sends while at most window operations are
// outstanding, and the caller's goroutine drains both ends' events, checks
// every delivered payload, and releases window slots. All tables are
// preallocated so the loop itself allocates nothing per operation and
// allocs_per_op is the program's.
type loadgen struct {
	w        *workload
	fill     []byte
	base     time.Time
	sendNS   []int64 // Send call time per operation, ns since base
	latNS    []int64 // completion latency per operation, 0 = not completed
	state    []uint8
	window   chan struct{} // counting semaphore: one slot per outstanding operation
	payload  []byte        // sender scratch
	next     int           // operations started so far (warm-up included)
	sendErr  error
	badBytes int       // delivered payloads that did not match what was sent
	dropped  int       // EventDropped seen at either end
	sawDeliv int       // EventDelivered events the drain saw
	distinct int       // operations delivered at least once
	rec      *recorder // traced pump only: the sending goroutine's span log
}

func newLoadgen(w *workload, seed int64) *loadgen {
	total := w.warmup() + w.ops
	g := &loadgen{
		w:       w,
		fill:    make([]byte, fillSpan+w.payload),
		base:    time.Now(),
		sendNS:  make([]int64, total),
		latNS:   make([]int64, total),
		state:   make([]uint8, total),
		window:  make(chan struct{}, w.window),
		payload: make([]byte, w.payload),
	}
	rand.New(rand.NewSource(seed)).Read(g.fill)
	return g
}

// body returns the bytes message op carries after its sequence number.
func (g *loadgen) body(op int) []byte {
	off := op % fillSpan
	return g.fill[off : off+g.w.payload-8]
}

// phaseResult is what one generator phase (warm-up or timed) observed.
type phaseResult struct {
	first, n  int
	completed int
	startNS   int64 // phase start, ns since the generator's base
}

// run drives n more operations through signer and drains until all have
// completed or patience has passed since the last completion.
func (g *loadgen) run(n int, signer, verifier link, patience time.Duration) phaseResult {
	first := g.next
	g.next += n
	stop := make(chan struct{})
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for op := first; op < first+n; op++ {
			sp := g.rec.begin(spWindowWait, 0, 0)
			select {
			case g.window <- struct{}{}:
			case <-stop:
				return
			}
			g.rec.end(sp)
			binary.BigEndian.PutUint64(g.payload, uint64(op))
			copy(g.payload[8:], g.body(op))
			g.sendNS[op] = int64(time.Since(g.base))
			id, err := signer.Send(g.payload)
			if err == nil && id != uint64(op)+1 {
				err = fmt.Errorf("message id %d for operation %d", id, op)
			}
			if err != nil {
				g.sendErr = err
				return
			}
		}
	}()

	start := time.Now()
	res := phaseResult{first: first, n: n, startNS: int64(start.Sub(g.base))}
	// A coarse ticker, not a per-completion timer reset: the drain gives up
	// once patience has passed with no completion.
	idle := time.NewTicker(patience / 4)
	defer idle.Stop()
	last := start
drain:
	for res.completed < n {
		var ev core.Event
		fromVerifier := false
		select {
		case ev = <-verifier.Events():
			fromVerifier = true
		case ev = <-signer.Events():
		case <-sent:
			sent = nil // a closed channel would spin the select
			if g.sendErr != nil {
				break drain
			}
			continue
		case now := <-idle.C:
			if now.Sub(last) > patience {
				break drain
			}
			continue
		}
		var op int
		switch {
		case ev.Kind == core.EventDropped:
			g.dropped++
			continue
		case fromVerifier && ev.Kind == core.EventDelivered:
			g.sawDeliv++
			op = g.checkDelivered(ev.Payload)
			if op < 0 || g.w.reliable {
				continue
			}
		case !fromVerifier && ev.Kind == core.EventAcked && g.w.reliable:
			op = int(ev.MsgID) - 1
		default:
			continue
		}
		if op < first || op >= first+n || g.state[op]&opDone != 0 {
			continue
		}
		g.state[op] |= opDone
		last = time.Now()
		g.latNS[op] = int64(last.Sub(g.base)) - g.sendNS[op]
		<-g.window
		res.completed++
	}
	close(stop)
	if sent != nil {
		<-sent
	}
	// Slots of operations that never completed stay taken; empty the
	// semaphore so a later phase starts with a full window.
	for len(g.window) > 0 {
		<-g.window
	}
	return res
}

// checkDelivered compares a delivered payload with what was sent and
// returns its operation number, or -1 when it matches nothing sent.
func (g *loadgen) checkDelivered(p []byte) int {
	if len(p) != g.w.payload {
		g.badBytes++
		return -1
	}
	op := int(binary.BigEndian.Uint64(p))
	if op < 0 || op >= g.next || !bytes.Equal(p[8:], g.body(op)) {
		g.badBytes++
		return -1
	}
	if g.state[op]&opDelivered != 0 {
		g.state[op] |= opDuplicate
	} else {
		g.distinct++
	}
	g.state[op] |= opDelivered
	return op
}

// settle keeps draining the verifier for up to d so deliveries still queued
// behind the last ack reach the oracle. It returns once every operation
// started so far has been delivered.
func (g *loadgen) settle(verifier link, d time.Duration) {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for g.distinct < g.next {
		select {
		case ev := <-verifier.Events():
			if ev.Kind == core.EventDelivered {
				g.sawDeliv++
				g.checkDelivered(ev.Payload)
			}
		case <-deadline.C:
			return
		}
	}
}

// tally counts the oracle's verdicts over operations [first, first+n).
func (g *loadgen) tally(first, n int) (correct, duplicates int) {
	for op := first; op < first+n; op++ {
		s := g.state[op]
		if s&opDone != 0 && s&opDelivered != 0 {
			correct++
		}
		if s&opDuplicate != 0 {
			duplicates++
		}
	}
	return correct, duplicates
}
