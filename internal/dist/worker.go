package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Worker is one campaign node: it holds the campaign's point list (every
// node derives the identical list from the campaign spec), runs assigned
// points through an unchanged campaign.Engine whose cache is tiered onto
// the shared result store, and answers the coordinator's run requests.
//
//	POST /v1/run   {"index":i} -> the point's encoded key and result
//	               (as the store now holds them) | 422 point failed
//	               | 503 node-transient (store unreachable, draining)
//	GET  /v1/stats worker + cache counters
//	GET  /healthz  "ok"
//
// These ride on a metrics.Server, so a worker also serves /stats,
// /metrics, /debug/spans, /debug/hist and /debug/pprof/.
//
// When the store is unreachable the worker degrades instead of dying:
// a tier read that fails is a miss, so it computes, and the client
// keeps the write-through it could not put. The point then gets one
// more put; if that fails too the point answers 503 — the coordinator
// puts it back in its queue for another node, or for this one once the
// link heals; it never records a permanent failure for a transient
// outage.
type Worker struct {
	cfg    WorkerConfig
	engine *campaign.Engine
	srv    *metrics.Server

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	runs      atomic.Int64
	completed atomic.Int64
}

// WorkerConfig parameterizes a worker node.
type WorkerConfig struct {
	// ID is the node's stable name in logs, traces and stats (the
	// coordinator's Node.ID for it).
	ID string
	// Points is the campaign's full point list; the coordinator
	// addresses work by index into it. Every node and the coordinator
	// must derive the identical list from the campaign spec — content
	// keys make any divergence harmless (a mismatched point is computed
	// under its own key, never served under another's).
	Points []campaign.Point
	// Store is the shared result store (required): the cache's network
	// tier.
	Store *StoreClient
	// Workers is the node's local license pool (<=0 = one per CPU).
	Workers int
	// StageTimeout arms the per-stage hung-tool watchdog (0 = off).
	StageTimeout time.Duration
	// KillOnRun, for tests, abortively closes the node when run request
	// number KillOnRun (1-based) arrives — before the point computes —
	// simulating a worker killed mid-point.
	KillOnRun int
	// Observer receives flow step records from every point this node
	// computes or replays — the hook the METRICS warehouse emitter
	// plugs into (nil = none).
	Observer flow.Observer
}

// NewWorker builds a worker whose engine caches through the store.
func NewWorker(cfg WorkerConfig) *Worker {
	cache := campaign.NewCache(0)
	cache.SetTier(cfg.Store)
	eng := campaign.New(campaign.Config{
		Workers:      cfg.Workers,
		Cache:        cache,
		StageTimeout: cfg.StageTimeout,
		Observer:     cfg.Observer,
	})
	w := &Worker{cfg: cfg, engine: eng, srv: metrics.NewServer()}
	w.srv.Aux = map[string]http.Handler{
		"/v1/run":   http.HandlerFunc(w.handleRun),
		"/v1/stats": http.HandlerFunc(w.handleStats),
		"/healthz":  http.HandlerFunc(handleHealthz),
	}
	return w
}

// Start begins listening ("127.0.0.1:0" for ephemeral) and returns the
// bound address. Start after Close fails instead of leaking a listener.
func (w *Worker) Start(addr string) (string, error) { return w.srv.Start(addr) }

// Close stops the node abortively (in-flight requests die — the "kill"
// semantics the reassignment path is built for). Idempotent.
func (w *Worker) Close() error { return w.srv.Close() }

// Shutdown drains the node gracefully: new run requests answer 503,
// in-flight points finish (bounded by ctx; past the bound the node is
// closed abortively), and the listener closes cleanly.
func (w *Worker) Shutdown(ctx context.Context) error {
	w.drainMu.Lock()
	already := w.draining
	w.draining = true
	w.drainMu.Unlock()
	if !already {
		metrics.Add("dist.worker.drained", 1)
	}
	done := make(chan struct{})
	go func() {
		w.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		w.srv.Close() //nolint:errcheck
		return ctx.Err()
	}
	err := w.srv.Shutdown(ctx)
	if w.cfg.Store != nil {
		w.cfg.Store.Close()
	}
	return err
}

// Completed reports how many run requests this node finished.
func (w *Worker) Completed() int64 { return w.completed.Load() }

// runRequest is the /v1/run body.
type runRequest struct {
	Index int `json:"index"`
}

// maxRunRequestBytes bounds a /v1/run body (a one-field JSON object).
const maxRunRequestBytes = 1 << 10

func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	w.drainMu.Lock()
	if w.draining {
		w.drainMu.Unlock()
		http.Error(rw, "draining", http.StatusServiceUnavailable)
		return
	}
	w.inflight.Add(1)
	w.drainMu.Unlock()
	defer w.inflight.Done()

	n := w.runs.Add(1)
	var req runRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxRunRequestBytes)).Decode(&req); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Index < 0 || req.Index >= len(w.cfg.Points) {
		http.Error(rw, "index out of range", http.StatusBadRequest)
		return
	}
	p := w.cfg.Points[req.Index]
	if p.CacheKey() == "" {
		http.Error(rw, "point has no design key (uncacheable points cannot be distributed)", http.StatusBadRequest)
		return
	}
	if k := int64(w.cfg.KillOnRun); k > 0 && n >= k {
		// Simulated mid-point kill: the node dies without computing, and
		// the coordinator must move its points to the survivors. A kill
		// takes the whole process, so a request that arrives beside or
		// after the fatal one finds its connection reset too, however the
		// two would have raced.
		if n == k {
			w.Close() //nolint:errcheck
		}
		panic(http.ErrAbortHandler)
	}
	// Adopt the coordinator's trace context from the RPC headers: this
	// span (and every campaign/flow span under it) parents under the
	// exact dispatch attempt that carried the request, stitching the
	// node's work into the coordinator's trace.
	ctx, sp := trace.Start(trace.AdoptHTTP(r.Context(), r.Header), "dist.worker.run")
	sp.SetInt("index", int64(req.Index))
	sp.Set("node", w.cfg.ID)
	body, err := w.runPoint(ctx, p)
	if err != nil {
		sp.EndErr(err)
		if err == errUnavailable || ctx.Err() != nil {
			// Node-transient, not a point failure: the result exists (or
			// will) but cannot reach the store from here right now. Tell
			// the coordinator to requeue the point.
			http.Error(rw, err.Error(), http.StatusServiceUnavailable)
			return
		}
		// A permanent point failure is the point's problem, not the
		// node's: 422 tells the coordinator not to declare us dead.
		http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.completed.Add(1)
	metrics.Add("dist.worker.completed", 1)
	sp.End()
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Write(body) //nolint:errcheck // a lost answer is the coordinator's retry
}

// runPoint runs the point through the engine: an in-process miss reads
// the store, and a fresh compute writes through to it. A nil error
// guarantees the result is in the store, so a write-through that failed
// gets one more put here and reports errUnavailable if that fails too.
// The returned bytes are that entry's key and result, encoded: the
// coordinator's copy of the result.
func (w *Worker) runPoint(ctx context.Context, p campaign.Point) ([]byte, error) {
	key := p.CacheKey()
	res, err := w.engine.Run(ctx, []campaign.Point{p})
	if err != nil {
		return nil, err
	}
	if err := w.cfg.Store.Publish(ctx, key); err != nil {
		metrics.Add("dist.worker.publish_blocked", 1)
		return nil, errUnavailable
	}
	// The coordinator assembles results, so the answer leaves the step
	// records out.
	return campaign.EncodeEntry(campaign.Entry{Key: key, Res: res[0]})
}

// workerStats is the /v1/stats shape.
type workerStats struct {
	ID        string              `json:"id"`
	Points    int                 `json:"points"`
	Runs      int64               `json:"runs"`
	Completed int64               `json:"completed"`
	Cache     campaign.CacheStats `json:"cache"`
}

func (w *Worker) handleStats(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, workerStats{
		ID: w.cfg.ID, Points: len(w.cfg.Points),
		Runs: w.runs.Load(), Completed: w.completed.Load(),
		Cache: w.engine.Cache().Stats(),
	})
}
