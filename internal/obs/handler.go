// HTTP surface: the telemetry exporter's /metrics and /trace plus the
// flight recorder's /flight and the Go runtime's /debug/pprof, in one
// handler for the CLIs' -metrics-addr listener.

package obs

import (
	"net/http"
	"net/http/pprof"

	"alpha/internal/telemetry"
)

// Handler serves the full observability surface:
//
//	/metrics       Prometheus text
//	/trace         packet-lifecycle trace ring
//	/flight        flight-recorder index (?assoc= for one association)
//	/debug/pprof/  the standard Go profiling endpoints
//
// rec may be nil (no /flight route).
func Handler(exp *telemetry.Exporter, rec *Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", exp.Handler())
	if rec != nil {
		mux.Handle("/flight", rec)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
