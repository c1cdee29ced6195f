package metrics

import (
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
)

// publishOnce guards the process-global expvar name: expvar.Publish
// panics on duplicates, and tests may build several handlers.
var publishOnce sync.Once

// HandlerOption adds a route to the exposition mux — the seam that lets
// caram-server mount endpoints owned by other layers (the tracing
// layer's /debug/traces) on the same port without this package
// importing them.
type HandlerOption func(*http.ServeMux)

// WithHandler mounts h at pattern on the exposition mux.
func WithHandler(pattern string, h http.Handler) HandlerOption {
	return func(mux *http.ServeMux) { mux.Handle(pattern, h) }
}

// Handler serves the registry over HTTP:
//
//	/metrics       Prometheus text exposition (see WritePrometheus)
//	/debug/vars    expvar JSON — runtime memstats plus a "caram" map of
//	               op counts per engine
//	/debug/pprof/  the standard pprof index, profile, trace, ...
//
// plus whatever extra routes the options mount (caram-server adds the
// tracing layer's /debug/traces). Wire it with `caram-server -http
// :9090`.
func Handler(r *Registry, opts ...HandlerOption) http.Handler {
	publishOnce.Do(func() {
		expvar.Publish("caram", expvar.Func(func() any { return expvarView(r) }))
	})
	mux := newMux(func(w io.Writer) error { return WritePrometheus(w, r.Snapshot()) }, opts)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// newMux is the exposition mux both tiers serve: /metrics rendered by
// write, the standard pprof routes, and whatever the options mount.
func newMux(write func(io.Writer) error, opts []HandlerOption) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = write(w)
	})
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

// expvarView flattens a snapshot into the JSON-friendly shape expvar
// expects (plain maps; the snapshot structs carry arrays and histograms
// that would serialize poorly).
func expvarView(r *Registry) map[string]any {
	s := r.Snapshot()
	engines := make(map[string]any, len(s.Engines))
	for _, e := range s.Engines {
		ops := make(map[string]any, NumOps)
		for op := Op(0); op < NumOps; op++ {
			ops[op.String()] = map[string]any{
				"count":   e.Ops[op].Count,
				"errors":  e.Ops[op].Errors,
				"mean_ns": e.Ops[op].Latency.MeanNs(),
			}
		}
		ev := map[string]any{"ops": ops}
		if e.HasGauges {
			ev["records"] = e.Gauges.Records
			ev["load_factor"] = e.Gauges.LoadFactor
			ev["amal"] = e.Gauges.AMAL
			ev["overflow"] = e.Gauges.Overflow
			ev["spilled"] = e.Gauges.Spilled
		}
		engines[e.Name] = ev
	}
	return map[string]any{"engines": engines, "unknown_engine": s.Unknown}
}
