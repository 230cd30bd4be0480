package dist

import (
	"context"
	"log"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// NodeState is one worker node's membership state as the coordinator
// sees it. The machine is suspect -> dead -> rejoin:
//
//	Live    ──rpc failure──▶ Suspect   (its slots stop pulling;
//	                                    the failed point goes back
//	                                    to the queue)
//	Suspect ──probe ok──────▶ Live     (recovered: pulling resumes)
//	Suspect ──N probe fails─▶ Dead     (in-flight dispatches are
//	                                    cancelled and requeued)
//	Dead    ──probe ok──────▶ Live     (rejoined: its slots pull
//	                                    from the queue again)
//
// A single transient RPC error therefore never buries a node — the
// seed's markDead-on-first-error behavior is now a suspicion plus a
// /healthz probe — and with every node Dead the queue simply waits for
// the first one back.
type NodeState int32

const (
	// NodeLive nodes' slots pull points from the queue.
	NodeLive NodeState = iota
	// NodeSuspect nodes had an RPC fail; their slots pull nothing while
	// the prober decides between recovery and death.
	NodeSuspect
	// NodeDead nodes pull nothing; the prober keeps watching for a
	// rejoin.
	NodeDead
)

func (s NodeState) String() string {
	switch s {
	case NodeLive:
		return "live"
	case NodeSuspect:
		return "suspect"
	case NodeDead:
		return "dead"
	}
	return "unknown"
}

// HealthConfig tunes the membership prober.
type HealthConfig struct {
	// ProbeInterval is the pause between /healthz probes of a live or
	// suspect node (0 = 100ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (0 = 1s).
	ProbeTimeout time.Duration
	// RejoinInterval is the pause between probes of a dead node
	// (0 = 4 x ProbeInterval).
	RejoinInterval time.Duration

	// probeFails is how many consecutive probe failures turn a suspect
	// node dead (0 = 3).
	probeFails int
}

func (h HealthConfig) probeInterval() time.Duration {
	if h.ProbeInterval <= 0 {
		return 100 * time.Millisecond
	}
	return h.ProbeInterval
}

func (h HealthConfig) probeTimeout() time.Duration {
	if h.ProbeTimeout <= 0 {
		return time.Second
	}
	return h.ProbeTimeout
}

func (h HealthConfig) deadAfter() int {
	if h.probeFails <= 0 {
		return 3
	}
	return h.probeFails
}

func (h HealthConfig) rejoinInterval() time.Duration {
	if h.RejoinInterval > 0 {
		return h.RejoinInterval
	}
	return 4 * h.probeInterval()
}

// stateOf reads one node's membership state.
func (c *Coordinator) stateOf(id string) NodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state[id]
}

// suspect moves a Live node to Suspect after an RPC failure. The
// node's in-flight dispatches are kept — the prober decides
// whether this was a blip (recover) or a death. Idempotent; no-op on
// Suspect or Dead nodes.
func (c *Coordinator) suspect(id string, cause error) {
	c.mu.Lock()
	if c.state[id] != NodeLive {
		c.mu.Unlock()
		return
	}
	c.state[id] = NodeSuspect
	c.mu.Unlock()
	c.suspected.Add(1)
	metrics.Add("dist.node.suspected", 1)
	sp := trace.Begin("dist.node.suspect")
	sp.Set("node", id)
	sp.EndErr(cause)
	// Wake the prober out of its live-interval sleep so the
	// suspect-interval cadence starts now.
	c.pokeProbe(id)
	c.cond.Broadcast()
}

// revive moves a Suspect node back to Live after a successful probe.
func (c *Coordinator) revive(id string) {
	c.mu.Lock()
	if c.state[id] != NodeSuspect {
		c.mu.Unlock()
		return
	}
	c.state[id] = NodeLive
	c.mu.Unlock()
	c.recovered.Add(1)
	metrics.Add("dist.node.recovered", 1)
	trace.Begin("dist.node.recover").EndWith(trace.OK)
	c.cond.Broadcast()
}

// declareDead finalizes a suspicion: cancel the node's in-flight
// dispatches, whose runners put their points back in the queue.
func (c *Coordinator) declareDead(id string, cause error) {
	c.mu.Lock()
	if c.state[id] == NodeDead {
		c.mu.Unlock()
		return
	}
	c.state[id] = NodeDead
	cancel := c.nodeCancel[id]
	outage := !c.done && !c.otherAliveLocked(id)
	c.mu.Unlock()

	if cancel != nil {
		cancel()
	}
	c.deaths.Add(1)
	metrics.Add("dist.node.dead", 1)
	metrics.Add("dist.coord.node_dead", 1)
	sp := trace.Begin("dist.coord.node_dead")
	sp.Set("node", id)
	sp.EndErr(cause)
	if outage {
		// Once per outage: nothing else tells an operator why a
		// campaign without a deadline has stopped moving.
		log.Printf("dist: every node is dead; points wait for one to rejoin or for the campaign context to end")
	}
	c.cond.Broadcast()
}

// rejoinNode brings a healed Dead node back: it becomes Live with a
// fresh dispatch context, and its waiting runners wake to pull work.
func (c *Coordinator) rejoinNode(id string) {
	c.mu.Lock()
	if c.state[id] != NodeDead || c.done {
		c.mu.Unlock()
		return
	}
	c.state[id] = NodeLive
	if c.runCtx != nil {
		nctx, cancel := context.WithCancel(c.runCtx)
		c.nodeCtx[id] = nctx
		c.nodeCancel[id] = cancel
	}
	c.mu.Unlock()
	c.rejoined.Add(1)
	metrics.Add("dist.node.rejoined", 1)
	sp := trace.Begin("dist.node.rejoin")
	sp.Set("node", id)
	sp.EndWith(trace.OK)
	c.cond.Broadcast()
}

// pokeProbe nudges a node's prober to run its next probe immediately.
func (c *Coordinator) pokeProbe(id string) {
	c.mu.Lock()
	ch := c.probePoke[id]
	c.mu.Unlock()
	if ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// monitor is one node's health prober, running for the whole campaign.
// It is the only writer of the Suspect->Dead and Dead->Live
// transitions, so the state machine needs no extra synchronization
// beyond the coordinator mutex.
func (c *Coordinator) monitor(ctx context.Context, id string) {
	h := c.cfg.Health
	fails := 0
	for {
		interval := h.probeInterval()
		if c.stateOf(id) == NodeDead {
			interval = h.rejoinInterval()
		}
		if err := c.sleepOrPoke(ctx, id, interval); err != nil {
			return
		}
		c.mu.Lock()
		st, done := c.state[id], c.done
		c.mu.Unlock()
		if done || ctx.Err() != nil {
			return
		}
		if st == NodeLive {
			// Live nodes are watched too: a wedged node whose dispatches
			// stall silently would otherwise never trip suspicion.
			if err := c.probe(ctx, id); err != nil {
				c.suspect(id, err)
				fails = 1
			} else {
				fails = 0
			}
			continue
		}
		err := c.probe(ctx, id)
		switch {
		case err == nil && st == NodeSuspect:
			c.revive(id)
			fails = 0
		case err == nil && st == NodeDead:
			c.rejoinNode(id)
			fails = 0
		case err != nil && st == NodeSuspect:
			fails++
			if fails >= h.deadAfter() {
				c.declareDead(id, err)
				fails = 0
			}
		}
	}
}

// sleepOrPoke sleeps for d, or less if the node's prober is poked.
func (c *Coordinator) sleepOrPoke(ctx context.Context, id string, d time.Duration) error {
	c.mu.Lock()
	ch := c.probePoke[id]
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-ch:
		return nil
	case <-t.C:
		return nil
	}
}

// probe hits a node's /healthz once, bounded by ProbeTimeout, no
// retries (the monitor loop is the retry policy).
func (c *Coordinator) probe(ctx context.Context, id string) error {
	cfg := c.cfg.RPC
	cfg.timeout = c.cfg.Health.probeTimeout()
	cfg.retries = -1
	r := &rpc{cfg: cfg, client: c.httpClient, target: id}
	res, err := r.do(ctx, "healthz", http.MethodGet, c.urls[id]+"/healthz", nil, 1<<10, false)
	if err != nil {
		metrics.Add("dist.probe.fail", 1)
		return err
	}
	if res.status != http.StatusOK {
		metrics.Add("dist.probe.fail", 1)
		return errUnavailable
	}
	metrics.Add("dist.probe.ok", 1)
	return nil
}
