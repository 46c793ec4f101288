package obs

import (
	"net/http"
	"net/http/pprof"
)

// DebugHandler is the operator-only diagnostic mux: net/http/pprof.
// It is deliberately a separate handler from the public API surface —
// zkflowd mounts it on -debug-addr (loopback by default), never on the
// public listener (TestDebugMuxNotOnPublicAPI pins that). The metrics
// snapshot is served by the public API at /api/v1/metrics.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
