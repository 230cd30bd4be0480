package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Node describes one worker node the coordinator can dispatch to.
type Node struct {
	// ID is the node's ring identity (must match the worker's own ID).
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
	// Nodes are the worker nodes to shard over.
	Nodes []Node
	// Store fetches the final results a worker's answer did not carry.
	Store *StoreClient
	// Replicas is the ring's virtual-node count per node (0 = 64).
	Replicas int
	// Ledger, when non-nil, is an externally shared slot ledger (e.g.
	// the front door's per-tenant pool); nil builds a private one sized
	// to the nodes' slot sum.
	Ledger *sched.Ledger
	// RPC hardens the dispatch and probe calls (deadlines, retries, and
	// the chaos transport).
	RPC RPCConfig
	// Health tunes the suspect -> dead -> rejoin membership prober.
	Health HealthConfig
}

// dispatchCap is how many failed dispatch rounds one point tolerates on
// its assigned node before the coordinator reroutes it to a different
// live node — the escape hatch from a node that answers /healthz but
// 5xxes every run (e.g. it cannot reach the store while the coordinator
// can reach both).
const dispatchCap = 3

// Coordinator shards a campaign across worker nodes by consistent
// hashing over each point's content key, dispatches over HTTP with
// per-node slot accounting, lets idle nodes steal queued points when
// the hash split is uneven, and assembles the final result list from
// each point's store entry — the copy a worker's 200 carried, or a fetch
// from the store for a point that completed without one — which is what
// makes the output byte-identical to a single-node run at any node
// count.
//
// Failure handling is the suspect -> dead -> rejoin machine in
// membership.go: a failed RPC suspends a node instead of burying it, a
// /healthz prober decides between recovery and death, a dead node's
// queue reshards onto survivors with minimal movement, and a healed
// node rejoins the ring and serves points again.
type Coordinator struct {
	cfg        CoordinatorConfig
	ring       *Ring
	ledger     *sched.Ledger
	keys       []string
	httpClient *http.Client
	rpcs       map[string]*rpc

	mu         sync.Mutex
	cond       *sync.Cond
	state      map[string]NodeState
	urls       map[string]string
	queues     map[string][]int
	attempts   map[int]int    // failed dispatch rounds per point index
	results    []*flow.Result // by point index: decoded from a worker's 200
	parked     []int          // points orphaned while every node was Dead
	nodeCtx    map[string]context.Context
	nodeCancel map[string]context.CancelFunc
	probePoke  map[string]chan struct{}
	runCtx     context.Context
	remaining  int
	done       bool
	fatal      error
	failed     []campaign.PointError

	deaths     atomic.Int64
	reassigned atomic.Int64
	stolen     atomic.Int64
	suspected  atomic.Int64
	recovered  atomic.Int64
	rejoined   atomic.Int64
	rerouted   atomic.Int64
}

// NewCoordinator validates the config and builds the ring.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one node")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("dist: coordinator needs a store client")
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 64
	}
	ids := make([]string, 0, len(cfg.Nodes))
	urls := make(map[string]string, len(cfg.Nodes))
	total := 0
	for _, n := range cfg.Nodes {
		if n.ID == "" || n.URL == "" {
			return nil, fmt.Errorf("dist: node needs ID and URL")
		}
		if _, dup := urls[n.ID]; dup {
			return nil, fmt.Errorf("dist: duplicate node ID %q", n.ID)
		}
		ids = append(ids, n.ID)
		urls[n.ID] = strings.TrimSuffix(n.URL, "/")
		total += nodeSlots(n)
	}
	keys := make([]string, len(cfg.Points))
	for i, p := range cfg.Points {
		keys[i] = p.CacheKey()
		if keys[i] == "" {
			return nil, fmt.Errorf("dist: point %d has no design key", i)
		}
	}
	ledger := cfg.Ledger
	if ledger == nil {
		ledger = sched.NewLedger(total)
	}
	for _, n := range cfg.Nodes {
		ledger.SetWeight(n.ID, nodeSlots(n))
	}
	rt := cfg.RPC.Transport
	if rt == nil {
		rt = newTransport()
	}
	c := &Coordinator{
		cfg: cfg, ring: NewRing(ids, replicas), ledger: ledger,
		keys:       keys,
		httpClient: &http.Client{Transport: rt},
		rpcs:       map[string]*rpc{},
		state:      map[string]NodeState{}, urls: urls,
		queues:   map[string][]int{},
		attempts: map[int]int{},
		nodeCtx:  map[string]context.Context{}, nodeCancel: map[string]context.CancelFunc{},
		probePoke: map[string]chan struct{}{},
	}
	c.cond = sync.NewCond(&c.mu)
	for _, id := range ids {
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

// Ledger exposes the slot ledger (for stats).
func (c *Coordinator) Ledger() *sched.Ledger { return c.ledger }

// CoordStats is a snapshot of the coordinator's accounting.
type CoordStats struct {
	Deaths     int64 `json:"deaths"`
	Reassigned int64 `json:"reassigned"`
	// Stolen counts points an idle node's slot pulled from another
	// node's queue (shard-imbalance absorption, not failure handling).
	Stolen int64 `json:"stolen"`
	// Suspected / Recovered / Rejoined count membership transitions:
	// Live->Suspect, Suspect->Live, and Dead->Live respectively.
	Suspected int64 `json:"suspected"`
	Recovered int64 `json:"recovered"`
	Rejoined  int64 `json:"rejoined"`
	// Rerouted counts points moved off a node that kept failing their
	// dispatches while still answering health probes.
	Rerouted int64 `json:"rerouted"`
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() CoordStats {
	return CoordStats{
		Deaths:     c.deaths.Load(),
		Reassigned: c.reassigned.Load(),
		Stolen:     c.stolen.Load(),
		Suspected:  c.suspected.Load(),
		Recovered:  c.recovered.Load(),
		Rejoined:   c.rejoined.Load(),
		Rerouted:   c.rerouted.Load(),
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
	for i := range c.cfg.Points {
		owner, ok := c.ring.Owner(c.keys[i], nil)
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("dist: empty ring")
		}
		c.queues[owner] = append(c.queues[owner], i)
	}
	if c.remaining == 0 {
		c.done = true
	}
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

	// Stop the probers (and any in-flight probe RPC) before assembling;
	// assemble itself runs on the outer ctx.
	cancelRun()
	probers.Wait()
	defer c.httpClient.CloseIdleConnections()

	c.mu.Lock()
	fatal := c.fatal
	failed := append([]campaign.PointError(nil), c.failed...)
	remaining := c.remaining
	c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if fatal != nil {
		return nil, fatal
	}
	if remaining != 0 {
		return nil, fmt.Errorf("dist: %d points unfinished with no live node", remaining)
	}
	return c.assemble(ctx, failed)
}

// runner is one remote slot's dispatch loop for node id. Runners never
// retire on node death — they park in next() so a rejoined node's slots
// resume pulling work; wg.Add after wg.Wait is never needed.
func (c *Coordinator) runner(ctx context.Context, id string) {
	for {
		idx, ok := c.next(ctx, id)
		if !ok {
			return
		}
		if err := c.ledger.Acquire(ctx, id); err != nil {
			return // context died; Run reports ctx.Err
		}
		if c.stateOf(id) != NodeLive {
			// The node stopped being dispatchable while we waited for a
			// slot; put the point back and park.
			c.ledger.Release(id)
			c.redispatch(id, idx, fmt.Errorf("dist: node %s not live at dispatch", id))
			continue
		}
		status, body, err := c.dispatch(ctx, id, idx)
		c.ledger.Release(id)
		switch {
		case err == nil && status == http.StatusOK:
			c.finish(idx, body)
		case err == nil && status == http.StatusUnprocessableEntity:
			// The point failed permanently on a healthy node — record
			// it, don't punish the node.
			c.fail(idx, fmt.Errorf("dist: point %d failed on %s: %s", idx, id, bytes.TrimSpace(body)))
		default:
			// Transport error (retry budget exhausted) or a node-level
			// 5xx: suspect the node and requeue — the prober decides
			// whether this is a blip or a death.
			if err == nil {
				err = fmt.Errorf("dist: node %s returned %d: %s", id, status, bytes.TrimSpace(body))
			}
			c.redispatch(id, idx, err)
		}
	}
}

// redispatch puts a failed point back in play: reassign it if the node
// is already dead, reroute it to a different live node once it has
// burned dispatchCap rounds on this one, otherwise requeue it at the
// front and raise suspicion.
func (c *Coordinator) redispatch(id string, idx int, cause error) {
	c.mu.Lock()
	c.attempts[idx]++
	rounds := c.attempts[idx]
	dead := c.state[id] == NodeDead
	c.mu.Unlock()
	if dead {
		c.reassign(idx)
		return
	}
	c.suspect(id, cause)
	if rounds%dispatchCap == 0 && c.reassignAvoiding(idx, id) {
		return
	}
	c.mu.Lock()
	c.queues[id] = append([]int{idx}, c.queues[id]...)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// reassignAvoiding queues a point on the ring owner among nodes other
// than avoid. False when no other node is available.
func (c *Coordinator) reassignAvoiding(idx int, avoid string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	alive := c.aliveLocked()
	delete(alive, avoid)
	owner, ok := c.ring.Owner(c.keys[idx], alive)
	if !ok {
		return false
	}
	c.queues[owner] = append(c.queues[owner], idx)
	c.rerouted.Add(1)
	metrics.Add("dist.coord.rerouted", 1)
	c.cond.Broadcast()
	return true
}

// next pops the next queued index for node id, blocking while the queue
// is empty and parking while the node is not Live. ok is false only
// when the campaign is done or the context died.
func (c *Coordinator) next(ctx context.Context, id string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.done || ctx.Err() != nil {
			return 0, false
		}
		if c.state[id] == NodeLive {
			if q := c.queues[id]; len(q) > 0 {
				c.queues[id] = q[1:]
				return q[0], true
			}
			if idx, ok := c.stealLocked(id); ok {
				return idx, true
			}
		}
		c.cond.Wait()
	}
}

// stealLocked (mu held) takes the tail of the longest other non-dead
// queue for an idle slot on node id. The ring is a locality policy, not
// a correctness one — any node can compute any point, and the output is
// assembled from the store by content key — so idle licenses drain an
// uneven shard split's stragglers instead of watching them. Suspect
// nodes are valid victims (their queue is exactly the work that is
// stalling). The owner pops from the head and the thief from the tail,
// so they never chase the same point.
func (c *Coordinator) stealLocked(id string) (int, bool) {
	victim := ""
	for nid, q := range c.queues {
		if nid == id || c.state[nid] == NodeDead || len(q) == 0 {
			continue
		}
		if victim == "" || len(q) > len(c.queues[victim]) ||
			(len(q) == len(c.queues[victim]) && nid < victim) {
			victim = nid
		}
	}
	if victim == "" {
		return 0, false
	}
	q := c.queues[victim]
	idx := q[len(q)-1]
	c.queues[victim] = q[:len(q)-1]
	if c.state[victim] != NodeLive {
		// Pulling work off a suspect node is failure-path migration,
		// not imbalance absorption — account it as a reassignment.
		c.reassigned.Add(1)
		metrics.Add("dist.coord.reassigned", 1)
	} else {
		c.stolen.Add(1)
		metrics.Add("dist.coord.stolen", 1)
	}
	return idx, true
}

// finish marks one point complete. body is the worker's 200: the entry
// it guarantees the store now holds. Kept when it decodes to this
// point's entry, so assemble need not fetch it again; anything else (an
// empty or torn body) just leaves the point to that fetch.
func (c *Coordinator) finish(idx int, body []byte) {
	var res *flow.Result
	if e, err := campaign.DecodeEntry(body); err == nil && e.Key == c.keys[idx] {
		res = e.Res
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[idx] = res
	c.remaining--
	metrics.Add("dist.coord.completed", 1)
	if c.remaining == 0 {
		c.done = true
		c.cond.Broadcast()
	}
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

// reassign hands a point to the key's owner among the non-dead nodes.
// With every node Dead the point is parked, not failed: Dead is a state
// a node leaves at its next good probe (rejoinNode drains the parked
// points onto the first node back), runners are parked in next() for
// exactly that, and a campaign whose nodes never return ends with its
// context. Only a coordinator that will not probe dead nodes
// (DisableRejoin) has nothing to wait for.
func (c *Coordinator) reassign(idx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner, ok := c.ring.Owner(c.keys[idx], c.aliveLocked())
	switch {
	case ok:
		c.queues[owner] = append(c.queues[owner], idx)
		c.reassigned.Add(1)
		metrics.Add("dist.coord.reassigned", 1)
	case c.cfg.Health.DisableRejoin:
		if c.fatal == nil {
			c.fatal = fmt.Errorf("dist: no live node to run point %d", idx)
		}
		c.done = true
	default:
		if len(c.parked) == 0 {
			// Once per outage: nothing else tells an operator why a
			// campaign without a deadline has stopped moving.
			log.Printf("dist: every node is dead; points wait for one to rejoin or for the campaign context to end (point %d parked)", idx)
		}
		c.parked = append(c.parked, idx)
		metrics.Add("dist.coord.parked", 1)
	}
	c.cond.Broadcast()
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
	// stitches under this exact assignment (reroutes get a new dispatch
	// span on the new node).
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

// assemble returns every completed point's store entry, in point order
// — the single source of truth that makes sharded output byte-identical
// to the single-node reference. Most points arrive with the copy of
// that entry their worker's 200 carried; the rest (an answer without a
// readable body) are fetched from the store here.
func (c *Coordinator) assemble(ctx context.Context, failed []campaign.PointError) ([]*flow.Result, error) {
	failedAt := make(map[int]bool, len(failed))
	for _, f := range failed {
		failedAt[f.Index] = true
	}
	results := c.results // every runner has returned
	// Fetches fan out (each one is an independent HTTP get plus a gob
	// decode); every result lands in its own index and the lowest missing
	// index is reported, so concurrency cannot change the output or the
	// error.
	missing := make([]bool, len(c.cfg.Points))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := range c.cfg.Points {
		if failedAt[i] || results[i] != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			// A Load can lose its whole retry budget to injected faults;
			// a few patient rounds keep a chaotic link from failing an
			// otherwise complete campaign. A genuinely missing entry
			// costs three short sleeps, nothing more.
			for round := 0; ; round++ {
				if e, ok := c.cfg.Store.LoadCtx(ctx, c.keys[i]); ok {
					results[i] = e.Res
					return
				}
				if round >= 3 || sleepCtx(ctx, 25*time.Millisecond) != nil {
					missing[i] = true
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, m := range missing {
		if m {
			return nil, fmt.Errorf("dist: point %d completed but store has no entry for %s", i, c.keys[i])
		}
	}
	if len(failed) > 0 {
		sort.Slice(failed, func(i, j int) bool { return failed[i].Index < failed[j].Index })
		return results, &campaign.RunError{Failed: failed}
	}
	return results, nil
}
