// Command campd runs one node of the distributed campaign service —
// the store, a worker, or the coordinator — so a sweep can be sharded
// across processes (and, with real addresses, across hosts).
//
// Usage:
//
//	campd -mode store -addr 127.0.0.1:7600 [-journal DIR]
//	campd -mode worker -id w0 -addr 127.0.0.1:7601 \
//	      -store-url http://127.0.0.1:7600 \
//	      -design tiny -freq 0.5 -seed 1 -sweep 4 [-parallel 2]
//	campd -mode coord -store-url http://127.0.0.1:7600 \
//	      -nodes w0=http://127.0.0.1:7601,w1=http://127.0.0.1:7602 \
//	      -design tiny -freq 0.5 -seed 1 -sweep 4
//
// Every process derives the identical campaign point list from the
// same sweep flags (-design/-freq/-seed/-sweep/-effort, expanded by
// repro.SweepSpec as sprflow's flags and the metricsd front door's JSON
// are), so the coordinator addresses work by point index and assembles
// results by content key. The coordinator's stdout is byte-identical to
// `sprflow -sweep` with the same flags, at any node count, including
// after killing workers mid-campaign. The store's -journal DIR makes
// results durable: restart the store and finished points are served,
// not recomputed.
//
// Observability: every worker and store is a metrics.Server with its
// /v1 routes mounted beside the server's own, so it serves /metrics
// (live counters, including chaos.fault.injected.* and dist.rpc.retried,
// plus runtime.goroutines / runtime.heap.alloc gauges), /stats,
// /debug/spans, /debug/hist and /debug/pprof on its own listen address.
// The coordinator's -metrics-addr additionally hosts the span collector
// at /v1/spans: give workers -span-ship http://COORD_METRICS/v1/spans
// and -trace on the coordinator writes one stitched Chrome trace for
// the whole fleet.
// The store's -warehouse DIR opens the WAL-backed METRICS warehouse
// (served under /warehouse/ on its -metrics-addr); workers feed it via
// -warehouse-url.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/dist"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/warehouse"
)

// drainTimeout bounds a graceful shutdown: past it, in-flight work is
// abandoned and the process exits anyway (an operator's kill must win).
const drainTimeout = 30 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	mode := flag.String("mode", "", "store, worker, or coord")
	addr := flag.String("addr", "127.0.0.1:0", "listen address (store and worker modes)")
	journalDir := flag.String("journal", "", "store WAL directory (store mode; \"\" = memory only)")
	storeURL := flag.String("store-url", "", "result store base URL (worker and coord modes)")
	id := flag.String("id", "", "worker node ID (worker mode; must match -nodes entry)")
	nodeList := flag.String("nodes", "", "comma-separated id=url worker list (coord mode)")
	design := flag.String("design", "pulpino", "design: pulpino, cpu, artificial, tiny")
	freq := flag.Float64("freq", 0.5, "base target frequency, GHz")
	seed := flag.Int64("seed", 1, "base seed")
	effort := flag.Int("effort", 2, "synthesis effort 1..3")
	sweep := flag.Int("sweep", 4, "seeds per frequency")
	parallel := flag.Int("parallel", 0, "worker concurrency / coord slots per node (0 = one per CPU)")
	stageTimeout := flag.Duration("stage-timeout", 0, "per-stage hung-tool watchdog deadline (0 = off)")
	metricsAddr := flag.String("metrics-addr", "", "serve the central metrics server on this address (all modes; store mode mounts the warehouse API here, coord mode the span collector)")
	traceFile := flag.String("trace", "", "arm tracing; coord mode writes the fleet's stitched Chrome trace here at exit")
	spanRetention := flag.Int("span-retention", 0, "cap retained finished spans (0 = default 64k ≈ 8 MB bound, <0 = unbounded)")
	spanShip := flag.String("span-ship", "", "worker/store: drain finished spans to this collector URL (the coord's /v1/spans) so the coordinator's trace is fleet-stitched")
	warehouseDir := flag.String("warehouse", "", "store mode: open a WAL-backed METRICS warehouse at DIR and serve its API under /warehouse/ on -metrics-addr (\"mem\" = in-memory)")
	warehouseURL := flag.String("warehouse-url", "", "worker mode: ingest one METRICS record per flow stage per point into the warehouse API at this base URL")
	flag.Parse()

	switch *mode {
	case "store":
		return runStore(*addr, *journalDir, nodeObs{
			metricsAddr: *metricsAddr, traceFile: *traceFile,
			retention: *spanRetention, shipURL: *spanShip,
			warehouseDir: *warehouseDir, node: "store",
		})
	case "worker", "coord":
	default:
		fmt.Fprintln(os.Stderr, "campd: -mode must be store, worker, or coord")
		return 2
	}

	if *storeURL == "" {
		fmt.Fprintln(os.Stderr, "campd: -store-url required")
		return 2
	}
	scfg, err := repro.SweepSpec{
		Design: *design, Freq: *freq, Seed: *seed, Seeds: *sweep, Effort: *effort,
	}.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campd:", err)
		return 2
	}
	scfg.Workers = *parallel
	scfg.StageTimeout = *stageTimeout
	pts, err := repro.CampaignPoints(scfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	client := dist.NewStoreClient(*storeURL)

	if *mode == "worker" {
		return runWorker(*id, *addr, pts, client, *parallel, scfg, nodeObs{
			metricsAddr: *metricsAddr, traceFile: *traceFile,
			retention: *spanRetention, shipURL: *spanShip,
			warehouseURL: *warehouseURL, node: *id,
		})
	}
	return runCoord(*nodeList, pts, scfg, client, *parallel, nodeObs{
		metricsAddr: *metricsAddr, traceFile: *traceFile,
		retention: *spanRetention, node: "coord",
	})
}

// nodeObs carries the observability flags into the mode runners.
type nodeObs struct {
	metricsAddr  string
	traceFile    string
	retention    int
	shipURL      string
	warehouseDir string
	warehouseURL string
	node         string
}

// nodeID derives a stable 16-bit span-id namespace from the node name,
// never 0 (0 is the single-process default and would collide with the
// coordinator). The coordinator itself keeps namespace 0.
func nodeID(node string) uint16 {
	if node == "coord" {
		return 0
	}
	h := fnv.New32a()
	io.WriteString(h, node) //nolint:errcheck
	id := uint16(h.Sum32())
	if id == 0 {
		id = 1
	}
	return id
}

// setupObs arms the shared observability stack for one campd process:
// tracing (shipped to the coordinator's collector when shipURL is set),
// the central metrics server when requested, and the periodic runtime
// gauges every node exposes on its own /metrics (satellite health:
// runtime.goroutines, runtime.heap.alloc).
func setupObs(o nodeObs, aux map[string]http.Handler) (flush func(), err error) {
	obsFlush, err := obs.SetupCfg(obs.Config{
		TraceFile:     o.traceFile,
		MetricsAddr:   o.metricsAddr,
		SpanRetention: o.retention,
		NodeID:        nodeID(o.node),
		ShipURL:       o.shipURL,
		ShipNode:      o.node,
		Aux:           aux,
		Gauges:        time.Second,
	})
	if err != nil {
		return nil, err
	}
	return obsFlush, nil
}

func runStore(addr, journalDir string, o nodeObs) int {
	var aux map[string]http.Handler
	var wh *warehouse.Warehouse
	if o.warehouseDir != "" {
		dir := o.warehouseDir
		if dir == "mem" {
			dir = ""
		}
		var err error
		wh, err = warehouse.Open(dir, journal.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer wh.Close()
		aux = map[string]http.Handler{
			"/warehouse/": http.StripPrefix("/warehouse", warehouse.NewHandler(wh)),
		}
	}
	flush, err := setupObs(o, aux)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer flush()
	store, err := dist.OpenStore(journalDir, journal.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer store.Close()
	srv := dist.NewStoreServer(store)
	bound, err := srv.Start(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if journalDir != "" {
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "store: recovered %d entries (%d corrupt) from %s\n",
			st.Recovered, st.Corrupt, journalDir)
	}
	if wh != nil && o.metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "store: -warehouse is open but has no HTTP surface; set -metrics-addr to serve /warehouse/")
	}
	fmt.Printf("campd store listening on %s\n", bound)
	waitSignal()
	// Graceful: finish in-flight puts (so every acknowledged entry is in
	// the WAL), then close the journal cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "store: shutdown: %v\n", err)
	}
	st := store.Stats()
	fmt.Fprintf(os.Stderr, "store: %d entries at shutdown\n", st.Entries)
	if wh != nil {
		ws := wh.Stats()
		fmt.Fprintf(os.Stderr, "warehouse: %d records (%d deduped, %d replayed, %d torn tails)\n",
			ws.Records, ws.Deduped, ws.Replayed, ws.Torn)
	}
	return 0
}

func runWorker(id, addr string, pts []campaign.Point, client *dist.StoreClient, parallel int, scfg repro.SweepConfig, o nodeObs) int {
	if id == "" {
		fmt.Fprintln(os.Stderr, "campd: worker mode needs -id")
		return 2
	}
	flush, err := setupObs(o, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer flush()
	var emit *warehouse.Emitter
	var obsv flow.Observer
	if o.warehouseURL != "" {
		emit = warehouse.NewEmitter(campaign.ID(pts), id, repro.PointKeys(pts), warehouse.NewClient(o.warehouseURL))
		obsv = emit
	}
	w := dist.NewWorker(dist.WorkerConfig{
		ID:           id,
		Points:       pts,
		Store:        client,
		Workers:      parallel,
		StageTimeout: scfg.StageTimeout,
		Observer:     obsv,
	})
	bound, err := w.Start(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("campd worker %s listening on %s (%d points known)\n", id, bound, len(pts))
	waitSignal()
	// Graceful: refuse new runs, finish in-flight points, backfill the
	// store backlog, release pooled connections — nothing computed here
	// is lost and the coordinator sees clean 503s while we drain.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := w.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: drain: %v\n", id, err)
	}
	if emit != nil {
		emit.Flush()
	}
	fmt.Fprintf(os.Stderr, "worker %s: %d points completed\n", id, w.Completed())
	return 0
}

func runCoord(nodeList string, pts []campaign.Point, scfg repro.SweepConfig, client *dist.StoreClient, parallel int, o nodeObs) int {
	// The coordinator hosts the span collector: workers -span-ship their
	// finished spans here, and the -trace file written at exit is the
	// fleet's single stitched timeline. Resolved lazily so the handler
	// sees the tracer setupObs arms.
	aux := map[string]http.Handler{
		"/v1/spans": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t := trace.Active()
			if t == nil {
				http.Error(w, "tracing is off (-trace not set)", http.StatusServiceUnavailable)
				return
			}
			trace.NewCollectorHandler(t).ServeHTTP(w, r)
		}),
	}
	flush, err := setupObs(o, aux)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer flush()
	var nodes []dist.Node
	for _, entry := range strings.Split(nodeList, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		nid, url, ok := strings.Cut(entry, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "campd: bad -nodes entry %q (want id=url)\n", entry)
			return 2
		}
		nodes = append(nodes, dist.Node{ID: nid, URL: url, Slots: campaign.Workers(parallel)})
	}
	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "campd: coord mode needs -nodes id=url[,id=url...]")
		return 2
	}
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Points: pts, Nodes: nodes, Store: client,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// A signal cancels the campaign context: runners stop dispatching,
	// probers exit, and Run returns the context error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, err := coord.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign failed: %v\n", err)
		return 1
	}
	repro.SweepResult{Points: repro.SweepRows(pts, results)}.Print(os.Stdout)
	st := coord.Stats()
	fmt.Fprintf(os.Stderr, "coord: %d points, %d node deaths, %d reassigned\n",
		len(results), st.Deaths, st.Reassigned)
	if o.traceFile != "" && o.metricsAddr != "" {
		// Workers drain finished spans to /v1/spans on a 500ms cadence; a
		// campaign shorter than one tick would otherwise end with the
		// collector torn down before the first batch arrives. Linger two
		// ticks so the stitched trace includes every node's spans.
		time.Sleep(collectLinger)
	}
	return 0
}

// collectLinger is how long the coordinator keeps its span collector up
// after the campaign completes (two worker ship intervals plus slack).
const collectLinger = 1200 * time.Millisecond

// waitSignal blocks until SIGINT or SIGTERM. The seed only caught
// os.Interrupt, so a SIGTERM (the kill(1) and orchestrator default)
// skipped every drain path and died with puts in flight and journal
// buffers unflushed.
func waitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
}
