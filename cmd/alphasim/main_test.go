package main

import (
	"strings"
	"testing"

	"alpha/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m) }

func TestUnknownModeIsUsage(t *testing.T) {
	if _, stderr, code := clitest.Run(t, "-mode", "X"); code != 2 || !strings.Contains(stderr, `unknown mode "X"`) {
		t.Fatalf("exit %d, want 2\n%s", code, stderr)
	}
}

// TestCIRuns pins the two runs CI makes. The output is not byte-stable (the
// association ID is random), so the test pins the lines that are.
func TestCIRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"clean", []string{"-hops", "2", "-mode", "C", "-batch", "4", "-msgs", "20", "-reliable"}},
		{"lossy", []string{"-hops", "2", "-mode", "C", "-batch", "4", "-msgs", "20", "-loss", "0.1", "-reliable"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, stderr, code := clitest.Run(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, want 0\n%s%s", code, out, stderr)
			}
			for _, want := range []string{
				"association established over 3 hops (assoc ",
				"workload: bulk(n=20,size=512)",
				"messages delivered+verified  20 ",
				"acked end-to-end             20 ",
				"send failures                0 ",
				"telemetry invariants: I1-I4 hold",
			} {
				if !strings.Contains("\n"+out, "\n"+want) {
					t.Errorf("no line starts with %q in\n%s", want, out)
				}
			}
		})
	}
}
