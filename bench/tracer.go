package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanName identifies the call a span wraps; the string is "<layer>.<call>",
// the layer being the module the call belongs to.
type spanName uint8

const (
	spRead       spanName = iota // udpio.Conn.ReadBatch: blocked waiting plus the syscall
	spWrite                      // udpio.Conn.WriteBatch
	spHandle                     // core.Endpoint.Handle
	spPoll                       // core.Endpoint.Poll
	spSend                       // core.Endpoint.Send
	spStart                      // core.Endpoint.StartHandshake
	spProcess                    // relay.Relay.ProcessFrom
	spHash                       // suite.Suite.Hash / HashInto
	spMAC                        // suite.Suite.MAC / MACInto
	spLockWait                   // waiting for the node's engine lock
	spWindowWait                 // generator blocked on the closed-loop window
	spEvents                     // handing engine events to the application channel
	spTimerSleep                 // retransmission-timer goroutine asleep
	spGenerate                   // churn generator building an association's datagrams
	spBookkeep                   // churn generator's timers, deadlines and routing
	spNames
)

var spanNames = [spNames]string{
	spRead: "udpio.read", spWrite: "udpio.write",
	spHandle: "core.handle", spPoll: "core.poll", spSend: "core.send", spStart: "core.start_handshake",
	spProcess: "relay.process", spHash: "suite.hash", spMAC: "suite.mac",
	spLockWait: "bench.lock_wait", spWindowWait: "bench.window_wait", spEvents: "bench.events",
	spTimerSleep: "bench.timer_sleep", spGenerate: "bench.generate", spBookkeep: "bench.bookkeeping",
}

// span is one timed call. parent indexes the enclosing span in the same
// recorder (-1 for a top-level span); seq is the exchange sequence number of
// the datagram being handled (0 where there is none); detail is the wire
// packet type where the span handles one datagram.
type span struct {
	start, end int64 // ns since the tracer's base
	parent     int32
	seq        uint32
	name       spanName
	detail     uint8
}

// tracer owns the recorders of one traced pass. Every goroutine records into
// its own recorder, so recording takes no lock; the spans are merged when
// the pass is over.
type tracer struct {
	base      time.Time
	recorders []*recorder
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// recorder is one goroutine's preallocated span log on one node. A nil
// recorder records nothing, which is how the spans-off pass runs the same
// pump code.
type recorder struct {
	tr      *tracer
	node    string
	loop    string // which of the node's goroutines: "read", "timer", "send"
	spans   []span
	cur     int32 // innermost open span
	dropped int   // spans not recorded because the log was full
}

// newRecorder must be called before the goroutines of the pass start.
func (tr *tracer) newRecorder(node, loop string, capacity int) *recorder {
	if tr == nil {
		return nil
	}
	r := &recorder{tr: tr, node: node, loop: loop, spans: make([]span, 0, capacity), cur: -1}
	tr.recorders = append(tr.recorders, r)
	return r
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name spanName, seq uint32, detail uint8) int32 {
	if r == nil {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{start: int64(time.Since(r.tr.base)), parent: r.cur, seq: seq, name: name, detail: detail})
	r.cur = idx
	return idx
}

// end closes the span begin returned.
func (r *recorder) end(idx int32) {
	if r == nil || idx < 0 {
		return
	}
	s := &r.spans[idx]
	s.end = int64(time.Since(r.tr.base))
	r.cur = s.parent
}

// selfTimes subtracts from every span the time its direct children cover.
// Children are nested and sequential within one recorder, so the sum of
// their durations is the covered part.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// rowKey is one row of the budget table.
type rowKey struct {
	node string
	name spanName
}

type budgetRow struct {
	count  int
	selfNS int64
	totNS  int64 // inclusive duration, top-level or not
}

// budget is the per-node time budget of a window of one traced pass.
type budget struct {
	rows map[rowKey]*budgetRow
	// per main loop (node/loop): wall time of the window and the part of it
	// top-level spans cover.
	loops map[string]*loopCover
	// per packet type, relay.process only.
	processByType map[uint8]*budgetRow
	wallNS        int64 // length of the window, the same for every loop
	dropped       int
}

type loopCover struct {
	node, loop string
	coveredNS  int64
}

// budgetOf aggregates the spans that lie inside [from, to].
func (tr *tracer) budgetOf(from, to int64) *budget {
	b := &budget{rows: map[rowKey]*budgetRow{}, loops: map[string]*loopCover{}, processByType: map[uint8]*budgetRow{}, wallNS: max(to-from, 1)}
	for _, r := range tr.recorders {
		b.dropped += r.dropped
		self := selfTimes(r.spans)
		lc := &loopCover{node: r.node, loop: r.loop}
		b.loops[r.node+"/"+r.loop] = lc
		for i, s := range r.spans {
			if s.end == 0 || s.end <= from || s.start >= to {
				continue
			}
			if s.parent < 0 {
				// Coverage counts the part of a straddling span that lies
				// inside the window; a timer asleep across the boundary is
				// still accounted for.
				lc.coveredNS += min(s.end, to) - max(s.start, from)
			}
			if s.start < from || s.end > to {
				continue // rows count whole spans only
			}
			k := rowKey{r.node, s.name}
			row := b.rows[k]
			if row == nil {
				row = &budgetRow{}
				b.rows[k] = row
			}
			row.count++
			row.selfNS += self[i]
			row.totNS += s.end - s.start
			if s.name == spProcess {
				pt := b.processByType[s.detail]
				if pt == nil {
					pt = &budgetRow{}
					b.processByType[s.detail] = pt
				}
				pt.count++
				pt.totNS += s.end - s.start
			}
		}
	}
	return b
}

// sum adds up one span name on the given node ("" for all nodes).
func (b *budget) sum(name spanName, node string) budgetRow {
	var out budgetRow
	for k, r := range b.rows {
		if k.name == name && (node == "" || k.node == node) {
			out.count += r.count
			out.selfNS += r.selfNS
			out.totNS += r.totNS
		}
	}
	return out
}

// unattributed returns the largest share of a main loop's wall time that no
// top-level span covers, and the loop it was found on. Timer loops are
// asleep by design and covered by their own sleep span.
func (b *budget) unattributed() (float64, string) {
	worst, where := 0.0, ""
	for key, lc := range b.loops {
		if lc.coveredNS == 0 {
			continue // a loop with no span in the window did not run in it
		}
		share := 1 - float64(lc.coveredNS)/float64(b.wallNS)
		if share > worst {
			worst, where = share, key
		}
	}
	return worst, where
}

// print writes the budget table: one block per node, rows sorted by self
// time, each with its share of the node's main-loop wall time.
func (b *budget) print(out *bufio.Writer, ops int) {
	nodes := map[string][]rowKey{}
	for k := range b.rows {
		nodes[k.node] = append(nodes[k.node], k)
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "time budget (self time = span minus its child spans; share of the window's wall time)\n")
	for _, n := range names {
		keys := nodes[n]
		sort.Slice(keys, func(i, j int) bool { return b.rows[keys[i]].selfNS > b.rows[keys[j]].selfNS })
		fmt.Fprintf(out, "  node %s\n", n)
		for _, k := range keys {
			r := b.rows[k]
			fmt.Fprintf(out, "    %-22s %9d calls %10.3f ms self %6.1f%% %9.3f us/op\n", spanNames[k.name], r.count,
				float64(r.selfNS)/1e6, 100*float64(r.selfNS)/float64(b.wallNS), float64(r.selfNS)/1e3/float64(max(ops, 1)))
		}
		for _, loop := range []string{"read", "send", "timer", "loop"} {
			if lc := b.loops[n+"/"+loop]; lc != nil && lc.coveredNS > 0 {
				fmt.Fprintf(out, "    loop %-17s covered %.1f%% of %.3f ms\n", n+"/"+loop, 100*float64(lc.coveredNS)/float64(b.wallNS), float64(b.wallNS)/1e6)
			}
		}
	}
}

// writeJSON dumps every span of the pass, one JSON object per line inside an
// array: name, node, loop, start, end (ns since the pass began), parent
// (index within the same node/loop, -1 for none) and exchange seq.
func (tr *tracer) writeJSON(path string, perLoop int) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[\n")
	first := true
	for _, r := range tr.recorders {
		for i, s := range r.spans {
			if i >= perLoop {
				break
			}
			if s.end == 0 {
				continue
			}
			if !first {
				w.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(w, `{"name":%q,"node":%q,"loop":%q,"idx":%d,"start":%d,"end":%d,"parent":%d,"seq":%d}`,
				spanNames[s.name], r.node, r.loop, i, s.start, s.end, s.parent, s.seq)
		}
	}
	w.WriteString("\n]\n")
	return w.Flush()
}
