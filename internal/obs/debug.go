package obs

import (
	"encoding/json"
	"log"
	"net/http"
	"net/http/pprof"
)

// metricsHandler serves the registry snapshot as JSON — the same body
// internal/api exposes at /api/v1/metrics.
func metricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(reg.Snapshot()); err != nil {
			log.Printf("obs: encoding snapshot: %v", err)
		}
	})
}

// DebugHandler is the operator-only diagnostic mux: net/http/pprof
// plus the metrics snapshot. It is deliberately a separate handler
// from the public API surface — zkflowd mounts it on -debug-addr
// (loopback by default), never on the public listener
// (TestDebugMuxNotOnPublicAPI pins that).
func DebugHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/metrics", metricsHandler(reg))
	return mux
}
