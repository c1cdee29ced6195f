package metrics

import (
	"expvar"
	"net/http"
	"net/http/pprof"
)

// HandlerOption adds a route to the exposition mux — the seam that lets
// a binary mount endpoints owned by other layers (the tracing layer's
// /debug/traces) on the same port without this package importing them.
type HandlerOption func(*http.ServeMux)

// WithHandler mounts h at pattern on the exposition mux.
func WithHandler(pattern string, h http.Handler) HandlerOption {
	return func(mux *http.ServeMux) { mux.Handle(pattern, h) }
}

// Handler serves one tier's exposition over HTTP:
//
//	/metrics       the Prometheus text exposition of x
//	/debug/vars    expvar JSON: Go's memstats and command line
//	/debug/pprof/  the standard pprof index, profile, trace, ...
//
// plus whatever routes the options mount. Wire it with `caram-server
// -http :9090` or `caram-router -http :9091`.
func Handler(x Exposition, opts ...HandlerOption) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = x.WriteTo(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, opt := range opts {
		opt(mux)
	}
	return mux
}
