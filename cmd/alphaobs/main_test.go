package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"alpha/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m) }

// serve answers every scrape with an endpoint family that delivered every
// S2 it received and dropped badPayload datagrams, all for a bad payload.
func serve(t *testing.T, badPayload int) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `# TYPE alpha_endpoint_recv_s2 counter
alpha_endpoint_recv_s2 10
# TYPE alpha_endpoint_delivered counter
alpha_endpoint_delivered %d
# TYPE alpha_endpoint_dropped counter
alpha_endpoint_dropped %d
# TYPE alpha_endpoint_drop_bad_payload counter
alpha_endpoint_drop_bad_payload %d
`, 10-badPayload, badPayload, badPayload)
	}))
	t.Cleanup(srv.Close)
	return srv.URL + "/metrics"
}

func TestExitCodes(t *testing.T) {
	clean, dirty := serve(t, 0), serve(t, 1)
	for _, tc := range []struct {
		args        []string
		code        int
		out, stderr string
	}{
		{[]string{"-benign", clean}, 0, "alphaobs: 4 samples from 1 endpoint(s): invariants hold", ""},
		// Without -benign a verification failure is an adversary's doing.
		{[]string{dirty}, 0, "invariants hold", ""},
		{[]string{"-benign", dirty}, 1, "I2-benign-clean", "1 invariant violation(s) across 1 endpoint(s)"},
		{[]string{"-benign"}, 2, "", "usage: alphaobs"},
	} {
		out, stderr, code := clitest.Run(t, tc.args...)
		if code != tc.code || !strings.Contains(out, tc.out) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("alphaobs %q: exit %d, want %d, with %q on stdout and %q on stderr\nstdout:\n%s\nstderr:\n%s",
				tc.args, code, tc.code, tc.out, tc.stderr, out, stderr)
		}
	}
}
