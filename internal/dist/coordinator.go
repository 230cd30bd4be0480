package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Node describes one worker node the coordinator can dispatch to.
type Node struct {
	// ID names the node in logs, traces and the chaos graph (must match
	// the worker's own ID).
	ID string
	// URL is the worker's base URL (e.g. "http://127.0.0.1:7601").
	URL string
	// Slots is how many points the node runs concurrently (<=0 = 1) —
	// its license count as seen from the coordinator.
	Slots int
}

// CoordinatorConfig parameterizes a campaign coordinator.
type CoordinatorConfig struct {
	// Points is the campaign, in output order. Every point must carry a
	// design key (uncacheable points cannot be addressed by content).
	Points []campaign.Point
	// Nodes are the worker nodes to dispatch to.
	Nodes []Node
	// RPC sets the dispatch and probe calls' jitter seed and transport
	// (where the chaos engine plugs in).
	RPC RPCConfig
	// Health tunes the suspect -> dead -> rejoin membership prober.
	Health HealthConfig
}

// Coordinator runs a campaign on worker nodes from one queue of point
// indices: every slot of every Live node pulls the next queued point and
// dispatches it over HTTP, and the final result list is assembled from
// each point's store entry — the copy a worker's 200 carries — which is
// what makes the output byte-identical to a single-node run at any node
// count. The coordinator never talks to the store itself.
//
// Failure handling is the suspect -> dead -> rejoin machine in
// membership.go: a failed dispatch puts its point back at the head of
// the queue for another node and suspends the node instead of burying
// it, a /healthz prober decides between recovery and death, and a
// healed node rejoins and pulls points again.
type Coordinator struct {
	cfg        CoordinatorConfig
	httpClient *http.Client
	rpcs       map[string]*rpc

	mu         sync.Mutex
	cond       *sync.Cond
	state      map[string]NodeState
	urls       map[string]string
	queue      []int          // point indices waiting for a slot
	failedOn   []string       // by point index: node its last dispatch failed on
	results    []*flow.Result // by point index: decoded from a worker's 200
	nodeCtx    map[string]context.Context
	nodeCancel map[string]context.CancelFunc
	probePoke  map[string]chan struct{}
	runCtx     context.Context
	remaining  int
	done       bool
	failed     []campaign.PointError

	deaths     atomic.Int64
	reassigned atomic.Int64
	suspected  atomic.Int64
	recovered  atomic.Int64
	rejoined   atomic.Int64
}

// NewCoordinator validates the config.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one node")
	}
	urls := make(map[string]string, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.ID == "" || n.URL == "" {
			return nil, fmt.Errorf("dist: node needs ID and URL")
		}
		if _, dup := urls[n.ID]; dup {
			return nil, fmt.Errorf("dist: duplicate node ID %q", n.ID)
		}
		urls[n.ID] = strings.TrimSuffix(n.URL, "/")
	}
	for i, p := range cfg.Points {
		if p.CacheKey() == "" {
			return nil, fmt.Errorf("dist: point %d has no design key", i)
		}
	}
	rt := cfg.RPC.Transport
	if rt == nil {
		rt = newTransport()
	}
	c := &Coordinator{
		cfg:        cfg,
		httpClient: &http.Client{Transport: rt},
		rpcs:       map[string]*rpc{},
		state:      map[string]NodeState{}, urls: urls,
		failedOn: make([]string, len(cfg.Points)),
		nodeCtx:  map[string]context.Context{}, nodeCancel: map[string]context.CancelFunc{},
		probePoke: map[string]chan struct{}{},
	}
	c.cond = sync.NewCond(&c.mu)
	for id := range urls {
		c.state[id] = NodeLive
		c.probePoke[id] = make(chan struct{}, 1)
		c.rpcs[id] = &rpc{cfg: cfg.RPC, client: c.httpClient, target: id}
	}
	return c, nil
}

func nodeSlots(n Node) int {
	if n.Slots <= 0 {
		return 1
	}
	return n.Slots
}

// CoordStats is a snapshot of the coordinator's accounting.
type CoordStats struct {
	Deaths int64 `json:"deaths"`
	// Reassigned counts failed dispatches, each of which put its point
	// back in the queue.
	Reassigned int64 `json:"reassigned"`
	// Suspected / Recovered / Rejoined count membership transitions:
	// Live->Suspect, Suspect->Live, and Dead->Live respectively.
	Suspected int64 `json:"suspected"`
	Recovered int64 `json:"recovered"`
	Rejoined  int64 `json:"rejoined"`
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() CoordStats {
	return CoordStats{
		Deaths:     c.deaths.Load(),
		Reassigned: c.reassigned.Load(),
		Suspected:  c.suspected.Load(),
		Recovered:  c.recovered.Load(),
		Rejoined:   c.rejoined.Load(),
	}
}

// Run executes the campaign and returns one result per point, in point
// order — the same contract as campaign.Engine.Run, including the
// *campaign.RunError carrying the index of every permanently failed
// point (whose result slot is nil).
func (c *Coordinator) Run(ctx context.Context) ([]*flow.Result, error) {
	ctx, sp := trace.Start(ctx, "dist.coordinate")
	defer sp.End()
	sp.SetInt("points", int64(len(c.cfg.Points)))
	sp.SetInt("nodes", int64(len(c.cfg.Nodes)))

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	c.mu.Lock()
	c.runCtx = runCtx
	for id := range c.state {
		nctx, cancel := context.WithCancel(runCtx)
		c.nodeCtx[id] = nctx
		c.nodeCancel[id] = cancel
	}
	c.remaining = len(c.cfg.Points)
	c.results = make([]*flow.Result, len(c.cfg.Points))
	c.queue = make([]int, len(c.cfg.Points))
	for i := range c.queue {
		c.queue[i] = i
	}
	c.done = c.remaining == 0
	c.mu.Unlock()

	// Wake queue waiters when the context dies (cond has no native
	// cancellation).
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()

	var probers sync.WaitGroup
	for _, n := range c.cfg.Nodes {
		probers.Add(1)
		go func(id string) {
			defer probers.Done()
			c.monitor(runCtx, id)
		}(n.ID)
	}

	var wg sync.WaitGroup
	for _, n := range c.cfg.Nodes {
		for s := 0; s < nodeSlots(n); s++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				c.runner(ctx, id)
			}(n.ID)
		}
	}
	wg.Wait()

	// Stop the probers (and any in-flight probe RPC).
	cancelRun()
	probers.Wait()
	c.httpClient.CloseIdleConnections()

	// Runners return only once the campaign is done or ctx died.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(c.failed) > 0 {
		sort.Slice(c.failed, func(i, j int) bool { return c.failed[i].Index < c.failed[j].Index })
		return c.results, &campaign.RunError{Failed: c.failed}
	}
	return c.results, nil
}

// runner is one remote slot's dispatch loop for node id. Runners never
// retire on node death — they wait in next() so a rejoined node's slots
// resume pulling work; wg.Add after wg.Wait is never needed.
func (c *Coordinator) runner(ctx context.Context, id string) {
	for {
		idx, ok := c.next(ctx, id)
		if !ok {
			return
		}
		status, body, err := c.dispatch(ctx, id, idx)
		switch {
		case err == nil && status == http.StatusOK && c.finish(idx, body):
			// The answer carried the point's entry: the point is done.
		case err == nil && status == http.StatusUnprocessableEntity:
			// The point failed permanently on a healthy node — record
			// it, don't punish the node.
			c.fail(idx, fmt.Errorf("dist: point %d failed on %s: %s", idx, id, bytes.TrimSpace(body)))
		default:
			// Transport error (retry budget exhausted, or the node was
			// declared dead mid-dispatch), a node-level 5xx, or a 200
			// that does not carry the point's entry.
			if err == nil && status == http.StatusOK {
				err = fmt.Errorf("dist: node %s answered point %d without its entry", id, idx)
			} else if err == nil {
				err = fmt.Errorf("dist: node %s returned %d: %s", id, status, bytes.TrimSpace(body))
			}
			c.redispatch(id, idx, err)
		}
	}
}

// redispatch puts a point whose dispatch to node id failed back at the
// head of the queue, marked so that another node takes it first, and
// suspects the node — the prober decides whether this is a blip or a
// death.
func (c *Coordinator) redispatch(id string, idx int, cause error) {
	c.mu.Lock()
	c.failedOn[idx] = id
	c.queue = slices.Insert(c.queue, 0, idx)
	c.mu.Unlock()
	c.reassigned.Add(1)
	metrics.Add("dist.coord.reassigned", 1)
	c.suspect(id, cause)
	c.cond.Broadcast()
}

// next pops the next point for a slot of node id, waiting while the
// node is not Live or has nothing to take. ok is false only when the
// campaign is done or the context died.
func (c *Coordinator) next(ctx context.Context, id string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.done || ctx.Err() != nil {
			return 0, false
		}
		if idx, ok := c.takeLocked(id); ok {
			return idx, true
		}
		c.cond.Wait()
	}
}

// takeLocked (mu held) pops the first queued point a Live node id may
// run. The one placement rule: a point is not handed back to the node
// its last dispatch failed on while some other node is not Dead — a node
// that answers /healthz but 5xxes every run (e.g. it cannot reach the
// store) hands its points on instead of retrying them forever.
func (c *Coordinator) takeLocked(id string) (int, bool) {
	if c.state[id] != NodeLive {
		return 0, false
	}
	alone := !c.otherAliveLocked(id)
	for i, idx := range c.queue {
		if alone || c.failedOn[idx] != id {
			c.queue = slices.Delete(c.queue, i, i+1)
			return idx, true
		}
	}
	return 0, false
}

// otherAliveLocked (mu held) reports whether a node other than id is
// not Dead.
func (c *Coordinator) otherAliveLocked(id string) bool {
	for nid, st := range c.state {
		if nid != id && st != NodeDead {
			return true
		}
	}
	return false
}

// finish marks one point complete when body, a worker's 200, decodes
// to this point's entry — the entry the worker guarantees the store now
// holds. It reports false for any other body, which completes nothing.
func (c *Coordinator) finish(idx int, body []byte) bool {
	e, err := campaign.DecodeEntry(body)
	if err != nil || e.Key != c.cfg.Points[idx].CacheKey() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[idx] = e.Res
	c.remaining--
	metrics.Add("dist.coord.completed", 1)
	if c.remaining == 0 {
		c.done = true
		c.cond.Broadcast()
	}
	return true
}

// fail records one point's permanent failure.
func (c *Coordinator) fail(idx int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed = append(c.failed, campaign.PointError{Index: idx, Err: err})
	c.remaining--
	metrics.Add("dist.coord.point_failed", 1)
	if c.remaining == 0 {
		c.done = true
		c.cond.Broadcast()
	}
}

// dispatch sends one run request to a node. The call is "long" — a
// dispatched point computes for as long as it computes — so the
// per-attempt RPC timeout is off and cancellation comes from either the
// campaign context or the node's own context, which declareDead cancels
// so a dispatch wedged on a dead node unblocks immediately.
func (c *Coordinator) dispatch(ctx context.Context, id string, idx int) (status int, body []byte, err error) {
	c.mu.Lock()
	nctx := c.nodeCtx[id]
	r := c.rpcs[id]
	c.mu.Unlock()
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if nctx != nil {
		stop := context.AfterFunc(nctx, cancel)
		defer stop()
	}
	// One span per dispatch: its dist.rpc attempt children carry the
	// trace context to the worker, so the node's entire compute subtree
	// stitches under this exact assignment (a point put back in the
	// queue gets a new dispatch span on its next node).
	dctx, dsp := trace.Start(dctx, "dist.dispatch")
	dsp.Set("node", id)
	dsp.SetInt("index", int64(idx))
	payload, _ := json.Marshal(runRequest{Index: idx})
	res, err := r.do(dctx, "run", http.MethodPost, c.urls[id]+"/v1/run", payload, maxEntryBytes, true)
	if err != nil {
		dsp.EndErr(err)
		return 0, nil, err
	}
	dsp.SetInt("status", int64(res.status))
	dsp.End()
	return res.status, res.body, nil
}
