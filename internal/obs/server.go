package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// ServeOpts selects what the observability HTTP listener exposes. Nil
// fields disable their endpoint; /debug/pprof/* is always served.
type ServeOpts struct {
	Metrics *Metrics        // GET /metrics: OpenMetrics exposition
	Flight  *FlightRecorder // GET /debug/flight: JSONL event dump
}

// Mux builds the observability endpoints on a fresh private mux:
// /metrics renders the registry as OpenMetrics with process-level
// gauges refreshed per scrape, /debug/flight streams the flight
// recorder as JSONL, and /debug/pprof/* exposes the standard profiler.
// Callers that own a larger HTTP surface (the simulation service) mount
// this mux under theirs; StartServer serves it standalone. Refresh, if
// non-nil, runs before every /metrics render so the caller can stamp
// scrape-time gauges of its own (queue depth, per-tenant usage).
func Mux(opts ServeOpts, refresh func(*Metrics)) *http.ServeMux {
	start := time.Now()
	mux := http.NewServeMux()
	if m := opts.Metrics; m != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			refreshProcessGauges(m, start)
			if f := opts.Flight; f != nil {
				m.Gauge(MetricFlightEvents).Set(float64(f.Len()))
			}
			if refresh != nil {
				refresh(m)
			}
			w.Header().Set("Content-Type", ContentTypeOpenMetrics)
			m.WriteOpenMetrics(w) //nolint:errcheck // client went away
		})
	}
	if f := opts.Flight; f != nil {
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
			f.WriteJSONL(w) //nolint:errcheck // client went away
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartServer serves the observability endpoints of Mux on addr (e.g.
// "localhost:9464", ":0" for an ephemeral port). It returns the bound
// address and a stop function.
func StartServer(addr string, opts ServeOpts) (boundAddr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Mux(opts, nil), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on stop
	return ln.Addr().String(), srv.Close, nil
}

// refreshProcessGauges stamps scrape-time process state into the
// registry so every exposition carries current uptime and memory use.
func refreshProcessGauges(m *Metrics, start time.Time) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Gauge(MetricUptimeSeconds).Set(time.Since(start).Seconds())
	m.Gauge(MetricHeapAllocBytes).Set(float64(ms.HeapAlloc))
	m.Gauge(MetricGoroutines).Set(float64(runtime.NumGoroutine()))
}
