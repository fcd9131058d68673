package udptransport

import (
	"net"
	"testing"

	"alpha/internal/core"
	"alpha/internal/relay"
	"alpha/internal/udpio"
)

// TestEnginePerRung: with zero-valued options every transport entry point
// runs on whatever udpio.Wrap picks for the socket — on a kernel that grants
// both probes, GSO and GRO live with nothing asked for — and each
// engineCases pin lands on the rung it names.
func TestEnginePerRung(t *testing.T) {
	listen := func() net.PacketConn {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		return pc
	}
	probed := udpio.Wrap(listen(), 0, nil)
	want := map[string]struct {
		batched bool
		offload udpio.OffloadStatus
	}{
		"offload":  {probed.Batched(), probed.Offload()},
		"batched":  {probed.Batched(), udpio.OffloadStatus{}},
		"portable": {false, udpio.OffloadStatus{}},
	}
	for _, e := range engineCases() {
		t.Run(e.name, func(t *testing.T) {
			w := want[e.name]
			if c := e.opts.wrap(listen(), nil); c.Batched() != w.batched || c.Offload() != w.offload {
				t.Fatalf("wrap: batched %v, offload %+v; want %v, %+v", c.Batched(), c.Offload(), w.batched, w.offload)
			}
			cfg := core.Config{ChainLen: 16}
			ep, err := core.NewEndpoint(cfg)
			if err != nil {
				t.Fatal(err)
			}
			conn := Wrap(listen(), ep, nil, e.opts)
			defer conn.Close()
			srv := NewServerWith(cfg, ServerOptions{IO: e.opts}, listen())
			defer srv.Close()
			rl := NewRelay(listen(), conn.pc.LocalAddr(), srv.LocalAddr(), relay.Config{}, e.opts)
			defer rl.Close()
			for name, got := range map[string]udpio.OffloadStatus{
				"Conn": conn.OffloadStatus(), "Server": srv.OffloadStatus(), "Relay": rl.OffloadStatus(),
			} {
				if got != w.offload {
					t.Errorf("%s.OffloadStatus() = %+v; want %+v", name, got, w.offload)
				}
			}
		})
	}
}

// TestOneIOOptions: the optional IOOptions of Dial, Listen, Wrap and
// NewRelay is the zero value when omitted, the caller's when given once, and
// a programming error when given twice.
func TestOneIOOptions(t *testing.T) {
	if o := oneIO(nil); o.Batch != 0 || o.Prefilter || o.engine != nil {
		t.Fatalf("no options: got %+v, want the zero value", o)
	}
	if o := oneIO([]IOOptions{{Batch: 3, Prefilter: true}}); o.Batch != 3 || !o.Prefilter {
		t.Fatalf("one option: got %+v", o)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("two options did not panic")
		}
	}()
	oneIO([]IOOptions{{}, {}})
}
