package dist

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// mountNodeDebug adds the node-local observability endpoints to a
// worker or store mux, so a wedged remote node is diagnosable without
// the central metrics server:
//
//	GET /metrics       process counters (chaos.fault.injected.*,
//	                   dist.rpc.retried, ...) + latency histograms,
//	                   live during a run — not only in the end-of-run
//	                   stderr ledger
//	GET /debug/pprof/  goroutine/heap/profile/trace, the stock pprof set
func mountNodeDebug(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		metrics.Default.Write(rw)
		if t := trace.Active(); t != nil {
			t.Histograms().Write(rw)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
