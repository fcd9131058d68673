//go:build linux && (amd64 || arm64)

package udpio

import (
	"bytes"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	"alpha/internal/telemetry"
)

// probeOffload asks the kernel, on a socket of its own, which offload
// features it grants — the expectation Wrap's status is checked against.
func probeOffload(t *testing.T) OffloadStatus {
	t.Helper()
	rc, err := listenUDP(t).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var st OffloadStatus
	if err := rc.Control(func(fd uintptr) {
		st.GSO = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
		st.GRO = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	}); err != nil {
		t.Fatal(err)
	}
	return st
}

// payloads builds one datagram per size, each filled with its own byte so a
// misrouted or mis-split segment shows.
func payloads(to net.Addr, sizes ...int) []Message {
	out := make([]Message, len(sizes))
	for i, sz := range sizes {
		out[i] = Message{Buf: bytes.Repeat([]byte{byte('a' + i)}, sz), N: sz, Addr: to}
	}
	return out
}

// roundTrip writes out through a in one WriteBatch and checks that b reads
// every datagram back byte-identical and in order.
func roundTrip(t *testing.T, a, b Conn, out []Message) {
	t.Helper()
	if sent, err := a.WriteBatch(out); err != nil || sent != len(out) {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, len(out))
	}
	in := make([]Message, len(out))
	for i := range in {
		in[i].Buf = make([]byte, 4096)
	}
	for got := 0; got < len(out); {
		n, err := b.ReadBatch(in[got:])
		if err != nil {
			t.Fatalf("ReadBatch after %d: %v", got, err)
		}
		got += n
	}
	for i := range out {
		if !bytes.Equal(in[i].Buf[:in[i].N], out[i].Buf[:out[i].N]) {
			t.Fatalf("datagram %d corrupted: got %d bytes %q, want %d bytes",
				i, in[i].N, in[i].Buf[:in[i].N], out[i].N)
		}
	}
}

// TestWrapStatusPerRung: Wrap on a loopback UDP socket reports exactly the
// offload features the kernel probe grants, with nothing asked of the
// caller; the two lower constructors report none.
func TestWrapStatusPerRung(t *testing.T) {
	want := probeOffload(t)
	if c := Wrap(listenUDP(t), 8, nil); !c.Batched() || c.Offload() != want {
		t.Fatalf("Wrap: batched %v, offload %+v; the kernel grants %+v", c.Batched(), c.Offload(), want)
	}
	if c := WrapBatched(listenUDP(t), 8, nil); !c.Batched() || c.Offload() != (OffloadStatus{}) {
		t.Fatalf("WrapBatched: batched %v, offload %+v; want the plain batched rung", c.Batched(), c.Offload())
	}
	if c := Portable(listenUDP(t), nil); c.Batched() || c.Offload() != (OffloadStatus{}) {
		t.Fatalf("Portable: batched %v, offload %+v; want the portable rung", c.Batched(), c.Offload())
	}
}

// TestOffloadGSORoundTrip sends an ALPHA-C-shaped burst — one odd-size S1
// plus 16 equal-size S2s — and then eight datagrams each alone, on every
// rung. Where GSO and GRO are live the burst must leave in one syscall and
// at most two kernel traversals.
func TestOffloadGSORoundTrip(t *testing.T) {
	const s2s = 16
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			apc, bpc := listenUDP(t), listenUDP(t)
			var sm, rm telemetry.IOMetrics
			a, b := e.wrap(apc, 32, sm.Init()), e.wrap(bpc, 32, rm.Init())
			bpc.SetReadDeadline(time.Now().Add(5 * time.Second))

			burst := payloads(bpc.LocalAddr(), 27)
			for i := 0; i < s2s; i++ {
				p := make([]byte, 64)
				copy(p, fmt.Sprintf("S2-%02d", i))
				burst = append(burst, Message{Buf: p, N: len(p), Addr: bpc.LocalAddr()})
			}
			roundTrip(t, a, b, burst)
			if a.Offload().GSO && b.Offload().GRO {
				if got := sm.WriteBatches.Load(); got != 1 {
					t.Errorf("send syscalls = %d; want 1 (S1 + packed S2 run in one sendmmsg)", got)
				}
				if got := sm.GSOSends.Load(); got != 1 {
					t.Errorf("GSO sends = %d; want 1 (the equal-size run)", got)
				}
				if got := sm.GSOSegments.Load(); got != s2s {
					t.Errorf("GSO segments = %d; want %d", got, s2s)
				}
			}

			for _, one := range payloads(bpc.LocalAddr(), 1, 64, 64, 200, 1200, 9, 64, 512) {
				roundTrip(t, a, b, []Message{one})
			}
			if got := sm.GSOSends.Load(); a.Offload().GSO && got != 1 {
				t.Errorf("GSO sends = %d after eight singletons; want still 1", got)
			}
			const total = s2s + 1 + 8
			if w, r := sm.DatagramsWritten.Load(), rm.DatagramsRead.Load(); w != total || r != total {
				t.Errorf("datagrams written/read = %d/%d; want %d/%d", w, r, total, total)
			}
		})
	}
}

// TestOffloadRaggedRun: a smaller trailing datagram may close a GSO run
// (kernel rule), but a larger one must start a new header. Every rung must
// deliver the four datagrams unchanged.
func TestOffloadRaggedRun(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			apc, bpc := listenUDP(t), listenUDP(t)
			var sm telemetry.IOMetrics
			a, b := e.wrap(apc, 32, sm.Init()), e.wrap(bpc, 32, nil)
			bpc.SetReadDeadline(time.Now().Add(5 * time.Second))

			roundTrip(t, a, b, payloads(bpc.LocalAddr(), 100, 100, 60, 200))
			if !a.Offload().GSO {
				return
			}
			// [100 100 60] packs into one header (60 is the legal smaller
			// tail); 200 rides alone as a plain header in the same sendmmsg.
			if got := sm.GSOSends.Load(); got != 1 {
				t.Errorf("GSO sends = %d; want 1", got)
			}
			if got := sm.GSOSegments.Load(); got != 3 {
				t.Errorf("GSO segments = %d; want 3", got)
			}
			if got := sm.WriteBatches.Load(); got != 1 {
				t.Errorf("send syscalls = %d; want 1", got)
			}
		})
	}
}

// TestOffloadGSORuntimeFallback: the probe grants UDP_SEGMENT but the kernel
// then rejects a segmented send — forced here with SO_NO_CHECK, which makes
// udp_send_skb return EINVAL for GSO and leaves plain sends alone. The
// burst must arrive whole, and the conn must stay on plain sendmmsg.
func TestOffloadGSORuntimeFallback(t *testing.T) {
	apc, bpc := listenUDP(t), listenUDP(t)
	var sm telemetry.IOMetrics
	a, b := Wrap(apc, 32, sm.Init()), Wrap(bpc, 32, nil)
	if !a.Offload().GSO {
		t.Skip("kernel lacks UDP_SEGMENT")
	}
	rc, err := apc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatalf("SO_NO_CHECK: %v, %v", err, serr)
	}
	bpc.SetReadDeadline(time.Now().Add(5 * time.Second))

	// The S1 leaves in the first sendmmsg before the kernel rejects the S2
	// run, so the fallback has to resume mid-batch without repeating it.
	burst := payloads(bpc.LocalAddr(), 27, 64, 64, 64, 64, 64, 64, 64, 64)
	roundTrip(t, a, b, burst)
	if a.Offload().GSO {
		t.Fatal("GSO still reported live after the kernel rejected a segmented send")
	}
	roundTrip(t, a, b, burst)
	if got := sm.GSOSends.Load(); got != 0 {
		t.Errorf("GSO sends = %d; want 0 (every segmented send was rejected)", got)
	}
	if got, want := sm.DatagramsWritten.Load(), uint64(2*len(burst)); got != want {
		t.Errorf("datagrams written = %d; want %d (none lost, none repeated)", got, want)
	}
}

// TestOffloadZeroAlloc is the hot-path acceptance check for the offload
// rung: a warm GSO write / GRO read cycle must not allocate.
func TestOffloadZeroAlloc(t *testing.T) {
	apc, bpc := listenUDP(t), listenUDP(t)
	a, b := Wrap(apc, 32, nil), Wrap(bpc, 32, nil)
	if !a.Offload().GSO || !b.Offload().GRO {
		t.Skip("kernel lacks UDP_SEGMENT or UDP_GRO")
	}
	bpc.SetReadDeadline(time.Now().Add(10 * time.Second))

	const n = 8
	out := make([]Message, n)
	for i := range out {
		out[i] = Message{Buf: make([]byte, 256), N: 256, Addr: bpc.LocalAddr()}
	}
	in := make([]Message, n)
	for i := range in {
		in[i].Buf = make([]byte, 2048)
	}
	cycle := func() {
		if _, err := a.WriteBatch(out); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		got := 0
		for got < n {
			r, err := b.ReadBatch(in[:])
			if err != nil {
				t.Fatalf("ReadBatch: %v", err)
			}
			got += r
		}
	}
	cycle() // warm the intern cache and slab state
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("offload read/write cycle allocates %.1f times per run; want 0", allocs)
	}
}
