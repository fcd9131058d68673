package main

import (
	"bytes"
	"testing"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/relay"
)

func TestDriverHandshakeAndExchange(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64, FlushDelay: -1}
	d, err := newDriver(cfg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.exchange([][]byte{[]byte("driver smoke")}); err != nil {
		t.Fatal(err)
	}
	if d.delivered() != 1 {
		t.Fatalf("delivered %d", d.delivered())
	}
}

func TestDriverWithRelay(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeC, BatchSize: 4, ChainLen: 64, FlushDelay: -1}
	rc := relay.Config{}
	d, err := newDriver(cfg, cfg, &rc)
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	if err := d.exchange(msgs); err != nil {
		t.Fatal(err)
	}
	if d.delivered() != 4 {
		t.Fatalf("delivered %d/4 through driver relay", d.delivered())
	}
	if d.r.Stats().ExtractedBytes == 0 {
		t.Fatalf("driver relay extracted nothing")
	}
}

func TestDriverHoldFreezesExchange(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeC, BatchSize: 4, ChainLen: 64, FlushDelay: -1, MaxOutstanding: 1}
	d, err := newDriver(cfg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.hold(packet.TypeA1)
	for i := 0; i < 4; i++ {
		if _, err := d.a.Send(d.Now, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	d.a.Flush(d.Now)
	if err := d.pump(10); err != nil {
		t.Fatal(err)
	}
	if d.delivered() != 0 {
		t.Fatalf("delivery happened despite held A1")
	}
	payload, sig := d.a.TxBufferedBytes()
	if payload != 400 || sig == 0 {
		t.Fatalf("frozen signer buffers payload=%d sig=%d", payload, sig)
	}
	vSig, _ := d.b.RxBufferedBytes()
	if vSig != 4*20 {
		t.Fatalf("frozen verifier buffers %d, want n·h=80", vSig)
	}
}

// TestExperimentsRegistered pins the experiment registry: every name is
// unique and runnable entries exist for all tables, figures and ablations.
func TestExperimentsRegistered(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig3", "fig5", "fig6", "wsn",
		"ablate-preack", "ablate-modes", "ablate-checkpoint", "ablate-rekey", "ablate-bundle",
		"related-tesla",
	}
	got := map[string]bool{}
	for _, e := range experiments() {
		if got[e.name] {
			t.Fatalf("duplicate experiment %q", e.name)
		}
		if e.run == nil || e.desc == "" {
			t.Fatalf("experiment %q incomplete", e.name)
		}
		got[e.name] = true
	}
	for _, name := range want {
		if !got[name] {
			t.Fatalf("experiment %q missing from registry", name)
		}
	}
}

// TestMeasureModeShapes spot-checks the ablation helper against the §3.3
// trade-off shape without printing tables.
func TestMeasureModeShapes(t *testing.T) {
	bufC, _, _, err := measureMode(packet.ModeC, 16, 1024)
	if err != nil {
		t.Fatal(err)
	}
	bufM, _, _, err := measureMode(packet.ModeM, 16, 1024)
	if err != nil {
		t.Fatal(err)
	}
	bufCM, _, _, err := measureMode(packet.ModeCM, 16, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if bufC != 16*20 {
		t.Fatalf("ALPHA-C buffer %d, want n·h=320", bufC)
	}
	if bufM != 20 {
		t.Fatalf("ALPHA-M buffer %d, want h=20", bufM)
	}
	if bufCM != 4*20 {
		t.Fatalf("ALPHA-CM buffer %d, want k·h=80", bufCM)
	}
}
