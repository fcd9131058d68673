package udpio

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"alpha/internal/telemetry"
)

func listenUDP(t *testing.T) *net.UDPConn {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc.(*net.UDPConn)
}

// engine is one rung of the ladder as a constructor over a fresh socket.
type engine struct {
	name string
	wrap func(pc net.PacketConn, batch int, m *telemetry.IOMetrics) Conn
}

// engines lists the three rungs so every test runs against each. Where a
// rung is unavailable (another platform, an old kernel) its constructor
// yields the next one down, which keeps the table green everywhere.
func engines() []engine {
	return []engine{
		{"offload", Wrap},
		{"batched", WrapBatched},
		{"portable", func(pc net.PacketConn, _ int, m *telemetry.IOMetrics) Conn { return Portable(pc, m) }},
	}
}

func TestRoundTripBothEngines(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			apc, bpc := listenUDP(t), listenUDP(t)
			var am, bm telemetry.IOMetrics
			a, b := e.wrap(apc, 8, &am), e.wrap(bpc, 8, &bm)

			const burst = 6
			out := make([]Message, burst)
			for i := range out {
				payload := []byte(fmt.Sprintf("datagram-%d", i))
				out[i] = Message{Buf: payload, N: len(payload), Addr: bpc.LocalAddr()}
			}
			sent, err := a.WriteBatch(out)
			if err != nil || sent != burst {
				t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, burst)
			}

			bpc.SetReadDeadline(time.Now().Add(2 * time.Second))
			in := make([]Message, burst)
			for i := range in {
				in[i].Buf = make([]byte, 2048)
			}
			got := 0
			for got < burst {
				n, err := b.ReadBatch(in[got:])
				if err != nil {
					t.Fatalf("ReadBatch after %d: %v", got, err)
				}
				got += n
			}
			seen := map[string]bool{}
			for i := 0; i < burst; i++ {
				seen[string(in[i].Buf[:in[i].N])] = true
				ra, ok := in[i].Addr.(*net.UDPAddr)
				if !ok || ra.Port != apc.LocalAddr().(*net.UDPAddr).Port {
					t.Fatalf("message %d source = %v; want sender %v", i, in[i].Addr, apc.LocalAddr())
				}
			}
			for i := 0; i < burst; i++ {
				if !seen[fmt.Sprintf("datagram-%d", i)] {
					t.Fatalf("payload datagram-%d missing; got %v", i, seen)
				}
			}
			if dw := bm.DatagramsRead.Load(); dw != burst {
				t.Fatalf("DatagramsRead = %d; want %d", dw, burst)
			}
			if dw := am.DatagramsWritten.Load(); dw != burst {
				t.Fatalf("DatagramsWritten = %d; want %d", dw, burst)
			}
		})
	}
}

// TestWriteBatchChunking sends more messages than the configured batch size
// so the batched engine must loop sendmmsg.
func TestWriteBatchChunking(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			apc, bpc := listenUDP(t), listenUDP(t)
			a := e.wrap(apc, 8, nil)

			const total = 19 // > batch of 8, not a multiple
			out := make([]Message, total)
			for i := range out {
				p := []byte{byte(i)}
				out[i] = Message{Buf: p, N: 1, Addr: bpc.LocalAddr()}
			}
			if sent, err := a.WriteBatch(out); err != nil || sent != total {
				t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, total)
			}

			bpc.SetReadDeadline(time.Now().Add(2 * time.Second))
			buf := make([]byte, 64)
			seen := map[byte]bool{}
			for len(seen) < total {
				n, _, err := bpc.ReadFrom(buf)
				if err != nil {
					t.Fatalf("read after %d datagrams: %v", len(seen), err)
				}
				if n != 1 {
					t.Fatalf("datagram length = %d; want 1", n)
				}
				seen[buf[0]] = true
			}
		})
	}
}

func TestReadBatchDrainsMultiple(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("batched engine is Linux-only")
	}
	apc, bpc := listenUDP(t), listenUDP(t)
	b := WrapBatched(bpc, 8, nil)
	if !b.Batched() {
		t.Skip("batched engine unavailable on this arch")
	}
	for i := 0; i < 5; i++ {
		if _, err := apc.WriteTo([]byte{byte(i)}, bpc.LocalAddr()); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	bpc.SetReadDeadline(time.Now().Add(2 * time.Second))
	in := make([]Message, 8)
	for i := range in {
		in[i].Buf = make([]byte, 64)
	}
	got := 0
	calls := 0
	for got < 5 {
		n, err := b.ReadBatch(in[got:])
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		got += n
		calls++
		if calls > 5 {
			t.Fatalf("needed %d calls for 5 queued datagrams", calls)
		}
	}
}

// TestBatchedZeroAlloc is the acceptance check: a warm batched read/write
// cycle must not allocate.
func TestBatchedZeroAlloc(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("batched engine is Linux-only")
	}
	apc, bpc := listenUDP(t), listenUDP(t)
	a, b := WrapBatched(apc, 8, nil), WrapBatched(bpc, 8, nil)
	if !a.Batched() || !b.Batched() {
		t.Skip("batched engine unavailable on this arch")
	}
	bpc.SetReadDeadline(time.Now().Add(5 * time.Second))

	out := make([]Message, 4)
	for i := range out {
		out[i] = Message{Buf: []byte("warmup-payload"), N: 14, Addr: bpc.LocalAddr()}
	}
	in := make([]Message, 4)
	for i := range in {
		in[i].Buf = make([]byte, 2048)
	}
	cycle := func() {
		if _, err := a.WriteBatch(out); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		got := 0
		for got < len(out) {
			n, err := b.ReadBatch(in[:])
			if err != nil {
				t.Fatalf("ReadBatch: %v", err)
			}
			got += n
		}
	}
	cycle() // warm the source-address intern cache
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("batched read/write cycle allocates %.1f times per run; want 0", allocs)
	}
}

func TestWriteBatchFamilyMismatch(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("batched engine is Linux-only")
	}
	apc := listenUDP(t) // bound to 127.0.0.1 → v4 socket
	a := Wrap(apc, 8, nil)
	if !a.Batched() {
		t.Skip("batched engine unavailable on this arch")
	}
	dst := &net.UDPAddr{IP: net.ParseIP("2001:db8::1"), Port: 9}
	if _, err := a.WriteBatch([]Message{{Buf: []byte("x"), N: 1, Addr: dst}}); err == nil {
		t.Fatal("IPv6 destination on IPv4 socket: want error, got nil")
	}
}

func TestWrapFallsBackForNonUDP(t *testing.T) {
	c := Wrap(nonUDPConn{}, 8, nil)
	if c.Batched() {
		t.Fatal("Wrap of a non-UDP PacketConn must use the portable engine")
	}
}

type nonUDPConn struct{ net.PacketConn }

func (nonUDPConn) LocalAddr() net.Addr { return &net.UnixAddr{} }

func TestListenReusePort(t *testing.T) {
	if !ReusePortSupported() {
		if _, err := ListenReusePort("udp", "127.0.0.1:0", 2); err == nil {
			t.Fatal("unsupported platform must return an error")
		}
		return
	}
	pcs, err := ListenReusePort("udp", "127.0.0.1:0", 3)
	if err != nil {
		t.Fatalf("ListenReusePort: %v", err)
	}
	defer func() {
		for _, pc := range pcs {
			pc.Close()
		}
	}()
	if len(pcs) != 3 {
		t.Fatalf("got %d sockets; want 3", len(pcs))
	}
	port := pcs[0].LocalAddr().(*net.UDPAddr).Port
	for i, pc := range pcs {
		if p := pc.LocalAddr().(*net.UDPAddr).Port; p != port {
			t.Fatalf("socket %d bound to port %d; want %d", i, p, port)
		}
	}

	// Datagrams sent to the shared port must land on exactly one socket,
	// and every socket must be readable.
	src := listenUDP(t)
	done := make(chan int, len(pcs))
	var wg sync.WaitGroup
	for _, pc := range pcs {
		wg.Add(1)
		go func(pc net.PacketConn) {
			defer wg.Done()
			pc.SetReadDeadline(time.Now().Add(2 * time.Second))
			buf := make([]byte, 64)
			got := 0
			for {
				if _, _, err := pc.ReadFrom(buf); err != nil {
					break
				}
				got++
			}
			done <- got
		}(pc)
	}
	const sent = 200
	for i := 0; i < sent; i++ {
		if _, err := src.WriteTo([]byte("x"), pcs[0].LocalAddr()); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	wg.Wait()
	close(done)
	total := 0
	for n := range done {
		total += n
	}
	if total != sent {
		t.Fatalf("sockets received %d datagrams total; want %d", total, sent)
	}
}
