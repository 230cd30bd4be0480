// Package chaos is a deterministic network fault injector for the
// distributed campaign tier. It wraps an http.RoundTripper and, driven
// by splitmix-derived coins keyed on (seed, source, target, method,
// attempt), injects the failures a real tool farm sees: dropped
// connections, stalled links, added latency, 5xx responses, duplicated
// deliveries, and scheduled partitions (node-to-node and node-to-store,
// with heal times).
//
// Determinism has two layers. The coin *schedule* is a pure function of
// the seed and the RPC's identity, so two runs with the same seed see
// the same fault sequence per (source, target, op) edge; which goroutine
// eats which coin can vary with scheduling, but the campaign output must
// not — the dist tier's contract is that any fault schedule with at
// least one live node yields bytes identical to the single-node
// reference, and the chaos soak in scripts/check.sh holds it to that.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/num"
)

// Partition is one scheduled link cut between two logical endpoints.
// Endpoints are the names the dist tier stamps on its RPCs: worker IDs
// ("w0"), "store", and "coord". "*" matches any endpoint. The window is
// measured from Engine creation; Heal <= Start means the cut never
// heals (a network-dead node).
type Partition struct {
	A, B  string
	Start time.Duration
	Heal  time.Duration
}

// cuts reports whether the partition severs the src->dst link at time t.
func (p Partition) cuts(src, dst string, t time.Duration) bool {
	if t < p.Start || (p.Heal > p.Start && t >= p.Heal) {
		return false
	}
	match := func(pat, name string) bool { return pat == "*" || pat == name }
	return (match(p.A, src) && match(p.B, dst)) || (match(p.A, dst) && match(p.B, src))
}

// Config is a fault schedule. All rates are probabilities in [0, 1],
// drawn independently per RPC attempt from the attempt's coin stream.
type Config struct {
	// Seed keys every coin; the zero seed is as valid as any other.
	Seed int64
	// DropRate kills the request before it is sent (connection refused /
	// reset analog — the caller sees a transport error).
	DropRate float64
	// FailRate short-circuits the request with a synthesized 503 (the
	// overloaded-proxy analog; the server never sees the request).
	FailRate float64
	// DupRate delivers the request twice (idempotence probe); the second
	// response is the one returned. Requests without a replayable body
	// are never duplicated.
	DupRate float64
	// StallRate wedges the request: it sleeps StallFor (or until the
	// caller's context dies) and then fails — the stalled-TCP analog
	// that only deadlines can unstick.
	StallRate float64
	// StallFor bounds one stall (0 = 30s).
	StallFor time.Duration
	// LatencyMax adds a uniform [0, LatencyMax) delay to every request
	// that survives the other coins (0 = no added latency).
	LatencyMax time.Duration
	// Partitions are the scheduled link cuts.
	Partitions []Partition
}

// Engine owns a schedule's clock and per-edge attempt counters. One
// engine serves every endpoint of a deployment; each endpoint wraps its
// transport via Transport(source, base).
type Engine struct {
	cfg   Config
	start time.Time

	mu  sync.Mutex
	seq map[string]uint64 // per (source|target|op) attempt counter
}

// New builds an engine for a schedule. A nil engine is a valid no-op:
// (*Engine)(nil).Transport(src, base) returns base unchanged, so chaos
// stays pluggable without touching the happy path.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, start: time.Now(), seq: map[string]uint64{}}
}

// Profile returns a named fault schedule. The names are the check
// harness's soak matrix; endpoints follow the dist deployment
// convention (workers w0..wN, the result store "store", the
// coordinator "coord").
//
//	flaky      transient faults everywhere: drops, 503s, duplicates
//	slow       heavy latency plus stalled requests (deadline food)
//	partition  w0 fully cut from the deployment, healing at 400ms —
//	           the suspect -> dead -> rejoin path
//	kill       w0 cut permanently from 15ms — the network-dead node
func Profile(name string, seed int64) (Config, error) {
	switch name {
	case "flaky":
		return Config{
			Seed: seed, DropRate: 0.15, FailRate: 0.15, DupRate: 0.10,
			LatencyMax: 2 * time.Millisecond,
		}, nil
	case "slow":
		return Config{
			Seed: seed, LatencyMax: 12 * time.Millisecond,
			StallRate: 0.10, StallFor: 120 * time.Millisecond,
		}, nil
	case "partition":
		return Config{
			Seed: seed, LatencyMax: 25 * time.Millisecond,
			Partitions: []Partition{{A: "*", B: "w0", Start: 15 * time.Millisecond, Heal: 400 * time.Millisecond}},
		}, nil
	case "kill":
		return Config{
			Seed: seed, LatencyMax: 2 * time.Millisecond,
			Partitions: []Partition{{A: "*", B: "w0", Start: 15 * time.Millisecond}},
		}, nil
	}
	return Config{}, fmt.Errorf("chaos: unknown profile %q (want flaky, slow, partition, or kill)", name)
}

// Profiles lists the named schedules, in soak order.
func Profiles() []string { return []string{"flaky", "slow", "partition", "kill"} }

// Error is an injected transport failure. The dist tier classifies any
// transport error as transient, so chaos errors need no special type —
// but carrying the fault kind makes logs and test failures readable.
type Error struct {
	Kind   string // "drop", "stall", "partition"
	Source string
	Target string
}

func (e *Error) Error() string {
	return fmt.Sprintf("chaos: %s injected on %s->%s", e.Kind, e.Source, e.Target)
}

// Elapsed is the schedule clock: time since the engine was created.
func (e *Engine) Elapsed() time.Duration { return time.Since(e.start) }

// Partitioned reports whether src->dst is cut at the schedule's current
// time (false on a nil engine).
func (e *Engine) Partitioned(src, dst string) bool {
	if e == nil {
		return false
	}
	t := e.Elapsed()
	for _, p := range e.cfg.Partitions {
		if p.cuts(src, dst, t) {
			return true
		}
	}
	return false
}

// Transport wraps base (nil = http.DefaultTransport) with the engine's
// fault schedule, acting as the named source endpoint. A nil engine
// returns base unchanged — the no-chaos fast path has zero overhead.
func (e *Engine) Transport(source string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if e == nil {
		return base
	}
	return &transport{eng: e, source: source, base: base}
}

// TargetHeader and OpHeader are how the dist RPC layer names the
// logical destination and operation of a request, so coins key on the
// node identity rather than an ephemeral host:port. Absent headers fall
// back to the URL host and method+path.
const (
	TargetHeader = "Chaos-Target"
	OpHeader     = "Chaos-Op"
)

type transport struct {
	eng    *Engine
	source string
	base   http.RoundTripper
}

// attempt returns the next per-edge attempt number — the coin-stream
// index for one physical send on (source, target, op).
func (e *Engine) attempt(edge string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.seq[edge]
	e.seq[edge] = n + 1
	return n
}

// coinSeed derives the splitmix seed for one attempt's coin stream.
func coinSeed(seed int64, source, target, op string, attempt uint64) int64 {
	h := fnv.New64a()
	io.WriteString(h, source) //nolint:errcheck
	h.Write([]byte{0})        //nolint:errcheck
	io.WriteString(h, target) //nolint:errcheck
	h.Write([]byte{0})        //nolint:errcheck
	io.WriteString(h, op)     //nolint:errcheck
	return num.Mix(seed^int64(h.Sum64()), attempt)
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	target := req.Header.Get(TargetHeader)
	if target == "" {
		target = req.URL.Host
	}
	op := req.Header.Get(OpHeader)
	if op == "" {
		op = req.Method + " " + req.URL.Path
	}
	cfg := &t.eng.cfg
	attempt := t.eng.attempt(t.source + "|" + target + "|" + op)
	coins := num.NewSplitMix(coinSeed(cfg.Seed, t.source, target, op, attempt))

	// Draw every coin up front, in a fixed order, so one fault's
	// presence never shifts another's stream position.
	latency := time.Duration(0)
	if cfg.LatencyMax > 0 {
		latency = time.Duration(coins.Uint64() % uint64(cfg.LatencyMax))
	}
	drop := coin(coins) < cfg.DropRate
	stall := coin(coins) < cfg.StallRate
	fail := coin(coins) < cfg.FailRate
	dup := coin(coins) < cfg.DupRate

	if t.eng.Partitioned(t.source, target) {
		metrics.Add("chaos.fault.injected.partition", 1)
		return nil, &Error{Kind: "partition", Source: t.source, Target: target}
	}
	if drop {
		metrics.Add("chaos.fault.injected.drop", 1)
		return nil, &Error{Kind: "drop", Source: t.source, Target: target}
	}
	if stall {
		metrics.Add("chaos.fault.injected.stall", 1)
		stallFor := cfg.StallFor
		if stallFor <= 0 {
			stallFor = 30 * time.Second
		}
		if err := sleepCtx(req.Context(), stallFor); err != nil {
			return nil, err // caller's deadline unstuck the stall
		}
		return nil, &Error{Kind: "stall", Source: t.source, Target: target}
	}
	if latency > 0 {
		metrics.Add("chaos.fault.injected.latency", 1)
		if err := sleepCtx(req.Context(), latency); err != nil {
			return nil, err
		}
	}
	if fail {
		metrics.Add("chaos.fault.injected.fail", 1)
		return synthesized(req, http.StatusServiceUnavailable, "chaos: injected 503"), nil
	}
	if dup && (req.Body == nil || req.GetBody != nil) {
		// Deliver twice; the second response is the caller's. The store's
		// first-put-wins contract makes the duplicate harmless, and the
		// soak verifies exactly that.
		first := req.Clone(req.Context())
		replayable := true
		if req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				replayable = false
			} else {
				first.Body = body
			}
		}
		if replayable {
			metrics.Add("chaos.fault.injected.dup", 1)
			if resp, err := t.base.RoundTrip(first); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}
	}
	return t.base.RoundTrip(req)
}

// CloseIdleConnections forwards to base, so closing a client's idle
// connections reaches through the fault layer. Without it a connection
// the base transport dialed but never sent a request on stays open, and a
// server shutting down waits out net/http's 5 s grace for such
// connections before it returns.
func (t *transport) CloseIdleConnections() {
	if ci, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// coin converts the next 53 bits of the stream into a uniform [0, 1).
func coin(s *num.SplitMix) float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// sleepCtx sleeps for d or until ctx dies, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// synthesized builds an in-memory response without touching the server.
func synthesized(req *http.Request, status int, msg string) *http.Response {
	return &http.Response{
		StatusCode: status,
		Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": []string{"text/plain"}},
		Body:          io.NopCloser(bytes.NewReader([]byte(msg + "\n"))),
		ContentLength: int64(len(msg) + 1),
		Request:       req,
	}
}
