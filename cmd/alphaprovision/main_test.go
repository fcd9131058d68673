package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"alpha/internal/clitest"
	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/relay"
	"alpha/internal/suite"
)

func TestMain(m *testing.M) { clitest.Main(m) }

// readJSON decodes one of the tool's output files.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// fileMode returns a file's permission bits.
func fileMode(t *testing.T, path string) fs.FileMode {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Mode().Perm()
}

// TestProvisionedPairThroughSeededRelay: the two records are secret (0600),
// the anchor set public (0644); both records load on their nodes, and the
// pair's first message crosses a strict relay seeded from anchors.json,
// which verifies it on the way.
func TestProvisionedPairThroughSeededRelay(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, code := clitest.Run(t, "-dir", dir, "-suite", "sha256", "-chainlen", "64"); code != 0 {
		t.Fatalf("alphaprovision: exit %d, stderr %q", code, stderr)
	}
	// The modes are asked for at creation, so the umask may clear bits;
	// measure it with a probe file rather than assume 022.
	probe := filepath.Join(dir, "probe")
	if err := os.WriteFile(probe, nil, 0o777); err != nil {
		t.Fatal(err)
	}
	allowed := fileMode(t, probe)
	for name, want := range map[string]fs.FileMode{"initiator.json": 0o600, "responder.json": 0o600, "anchors.json": 0o644} {
		if got := fileMode(t, filepath.Join(dir, name)); got != want&allowed {
			t.Errorf("%s: mode %v, want %v", name, got, want&allowed)
		}
	}

	var recI, recR core.ProvisionRecord
	var anchors core.AnchorSet
	readJSON(t, filepath.Join(dir, "initiator.json"), &recI)
	readJSON(t, filepath.Join(dir, "responder.json"), &recR)
	readJSON(t, filepath.Join(dir, "anchors.json"), &anchors)
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, FlushDelay: -1}
	var eps [2]*core.Endpoint
	for i, rec := range []core.ProvisionRecord{recI, recR} {
		p, err := core.FromRecord(cfg, rec)
		if err != nil {
			t.Fatal(err)
		}
		if eps[i], err = core.NewPreconfiguredEndpoint(p); err != nil {
			t.Fatal(err)
		}
	}
	a, b := eps[0], eps[1]
	st, err := suite.ByID(suite.ID(anchors.Suite))
	if err != nil {
		t.Fatal(err)
	}
	r := relay.New(relay.Config{Strict: true})
	if err := r.Seed(st, anchors); err != nil {
		t.Fatal(err)
	}

	msg := "reading 1"
	var extracted, delivered string
	acked := false
	p := path.Path[core.Event]{
		Now:  time.Unix(1_700_000_000, 0),
		Ends: [2]path.Node[core.Event]{a, b},
		Hops: []path.Hop{func(now time.Time, upstream int, raw []byte) []byte {
			d := r.ProcessFrom(now, upstream, raw)
			if d.Verdict != relay.Forward {
				t.Fatalf("relay dropped provisioned traffic: %v", d.Reason)
			}
			if d.Extracted != nil {
				extracted = string(d.Extracted)
			}
			return d.Forwarded(raw)
		}},
		On: func(_ path.Side, ev core.Event) {
			switch ev.Kind {
			case core.EventDelivered:
				delivered = string(ev.Payload)
			case core.EventAcked:
				acked = true
			}
		},
	}
	if _, err := a.Send(p.Now, []byte(msg)); err != nil {
		t.Fatal(err)
	}
	a.Flush(p.Now)
	if err := p.Settle(8); err != nil {
		t.Fatal(err)
	}
	if delivered != msg || extracted != msg || !acked {
		t.Fatalf("delivered %q, relay verified %q, acked %v; want %q verified, delivered and acked", delivered, extracted, acked, msg)
	}
}

// TestExitCodes: an unknown suite is a usage error (2); a configuration
// Provision refuses, an odd chain length, is a failure (1) with the reason
// on stderr and no files written.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	if _, _, code := clitest.Run(t, "-dir", dir, "-suite", "md5"); code != 2 {
		t.Errorf("alphaprovision -suite md5: exit %d, want 2", code)
	}
	if _, stderr, code := clitest.Run(t, "-dir", dir, "-chainlen", "7"); code != 1 || stderr == "" {
		t.Errorf("alphaprovision -chainlen 7: exit %d, stderr %q; want exit 1 and a reason", code, stderr)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("failed runs left %d files behind (%v)", len(entries), err)
	}
}
