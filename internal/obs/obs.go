// Package obs wires the observability flags shared by the CLIs:
// -trace FILE arms the process-wide tracer and writes a Chrome
// trace_event JSON file at exit (load it in chrome://tracing or
// https://ui.perfetto.dev), -metrics-addr ADDR serves the live
// introspection endpoints (/metrics, /debug/spans, /debug/hist,
// /debug/pprof) while the process runs, and -span-retention N bounds
// the tracer's finished-span memory.
package obs

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Config selects what SetupCfg arms. The zero value arms nothing.
type Config struct {
	// TraceFile, when non-empty, arms the process-wide tracer and
	// writes a Chrome trace there at flush.
	TraceFile string
	// MetricsAddr, when non-empty, serves the live endpoints there.
	MetricsAddr string
	// SpanRetention caps retained finished spans (the -span-retention
	// flag): 0 = trace.DefaultRetention (64k spans ≈ 8 MB), < 0 =
	// unbounded. The cap bounds tracer memory for arbitrarily long
	// campaigns; overflow increments the exporter's droppedSpans count
	// rather than growing the heap.
	SpanRetention int
	// Node names this process in a fleet. A non-empty name namespaces
	// span ids by a 16-bit hash of it (trace.Config.NodeID), so this
	// process's spans can ship to a fleet collector without colliding,
	// and labels its shipped batches. "" keeps namespace 0, the
	// single-process default the coordinator keeps too.
	Node string
	// ShipURL, when non-empty, drains finished spans every 500 ms and
	// POSTs them to this collector endpoint (a coordinator's /v1/spans).
	ShipURL string
	// Aux mounts extra handlers on the metrics server by pattern — the
	// span collector and warehouse API ride here.
	Aux map[string]http.Handler
	// Gauges starts the periodic runtime gauge sampler
	// (runtime.goroutines, runtime.heap.alloc) at this interval when
	// > 0 — the "is that remote node wedged or working" signal.
	Gauges time.Duration
}

// SetupCfg arms what cfg selects and returns a flush function that must
// run before the process exits — it writes the trace file and shuts the
// server down. Callers should route every exit path through it.
func SetupCfg(cfg Config) (flush func(), err error) {
	var tr *trace.Tracer
	if cfg.TraceFile != "" || cfg.ShipURL != "" {
		retention := cfg.SpanRetention
		if retention == 0 {
			retention = trace.DefaultRetention
		}
		tr = trace.NewCfg(trace.Config{Retention: retention, NodeID: namespace(cfg.Node)})
		trace.Enable(tr)
	}
	var srv *metrics.Server
	if cfg.MetricsAddr != "" {
		srv = metrics.NewServer()
		srv.Aux = cfg.Aux
		bound, err := srv.Start(cfg.MetricsAddr)
		if err != nil {
			trace.Disable()
			return nil, fmt.Errorf("metrics server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics and /debug on http://%s\n", bound)
	}
	var shipper *trace.Shipper
	if cfg.ShipURL != "" && tr != nil {
		shipper = trace.NewShipper(tr, cfg.Node, cfg.ShipURL)
		shipper.Start()
	}
	var stopGauges func()
	if cfg.Gauges > 0 {
		stopGauges = StartRuntimeGauges(cfg.Gauges)
	}
	return func() {
		if stopGauges != nil {
			stopGauges()
		}
		if shipper != nil {
			shipper.Stop() // final drain: no finished span stays stranded
		}
		if srv != nil {
			srv.Close() //nolint:errcheck
		}
		if tr == nil {
			return
		}
		trace.Disable()
		if cfg.TraceFile == "" {
			return
		}
		f, err := os.Create(cfg.TraceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			return
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace: write: %v\n", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: close: %v\n", err)
			return
		}
		n, _ := tr.Snapshot()
		fmt.Fprintf(os.Stderr, "trace: wrote %d spans to %s\n", len(n), cfg.TraceFile)
	}, nil
}

// namespace derives a stable 16-bit span-id namespace from a node name:
// 0 for "", never 0 otherwise (0 would collide with the coordinator).
func namespace(node string) uint16 {
	if node == "" {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(node)) //nolint:errcheck // hash writes never fail
	if id := uint16(h.Sum32()); id != 0 {
		return id
	}
	return 1
}

// StartRuntimeGauges samples runtime health into the process-wide
// counter registry every interval — visible on any /metrics endpoint
// (the central server's and the per-node ones) as runtime.goroutines
// and runtime.heap.alloc. Returns a stop function.
func StartRuntimeGauges(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		metrics.Set("runtime.goroutines", int64(runtime.NumGoroutine()))
		metrics.Set("runtime.heap.alloc", int64(ms.HeapAlloc))
	}
	sample()
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}
