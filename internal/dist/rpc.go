package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/num"
	"repro/internal/trace"
)

// RPCConfig hardens one HTTP client against the network. The zero value
// is production-sane: explicit connect and per-attempt deadlines (the
// seed's bare http.Client{} would wait on a stalled TCP connection
// forever), bounded exponential-backoff retries with deterministic
// jitter, and transient-vs-permanent error classification.
type RPCConfig struct {
	// Seed keys the deterministic backoff jitter — the same seeded
	// source the chaos engine draws from, so a rerun under the same
	// schedule reproduces the same sleep pattern per (target, op,
	// attempt).
	Seed int64
	// Transport overrides the HTTP transport (nil = a fresh transport
	// with explicit dial/TLS deadlines). This is where the chaos engine
	// plugs in.
	Transport http.RoundTripper

	// timeout bounds one attempt of a short RPC (0 = 10s; <0 = none).
	// Long-running calls (a dispatched point compute) ignore it and rely
	// on context cancellation plus connect timeouts.
	timeout time.Duration
	// retries is how many times a transient failure is retried after the
	// first attempt (0 = 3; <0 = none).
	retries int
	// backoffBase seeds the exponential backoff (0 = 25ms); one sleep
	// never exceeds backoffMax.
	backoffBase time.Duration
}

func (c RPCConfig) attemptTimeout() time.Duration {
	if c.timeout == 0 {
		return 10 * time.Second
	}
	if c.timeout < 0 {
		return 0
	}
	return c.timeout
}

func (c RPCConfig) retryBudget() int {
	if c.retries == 0 {
		return 3
	}
	if c.retries < 0 {
		return 0
	}
	return c.retries
}

func (c RPCConfig) firstBackoff() time.Duration {
	if c.backoffBase <= 0 {
		return 25 * time.Millisecond
	}
	return c.backoffBase
}

// backoffMax caps one backoff sleep.
const backoffMax = time.Second

// NewTransport builds the hardened default transport — exported so a
// chaos engine can wrap it (chaos.Engine.Transport(source, base)) and
// hand the result back via RPCConfig.Transport.
func NewTransport() *http.Transport { return newTransport() }

// newTransport builds the hardened default transport: every phase of a
// connection that can wedge has a deadline except the response wait,
// which belongs to the per-attempt context (dispatches legitimately
// take minutes).
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 15 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   5 * time.Second,
		ExpectContinueTimeout: time.Second,
		MaxIdleConnsPerHost:   8,
		IdleConnTimeout:       30 * time.Second,
	}
}

// rpc is the retrying HTTP caller shared by StoreClient and
// Coordinator. target is the logical peer name ("store", "w0") stamped
// on requests for the chaos engine and used to key jitter.
type rpc struct {
	cfg    RPCConfig
	client *http.Client
	target string
}

func newRPC(cfg RPCConfig, target string) *rpc {
	rt := cfg.Transport
	if rt == nil {
		rt = newTransport()
	}
	return &rpc{cfg: cfg, client: &http.Client{Transport: rt}, target: target}
}

// closeIdle releases pooled connections (and their readLoop goroutines)
// so shutdown leaves nothing behind for the leak check to find.
func (r *rpc) closeIdle() { r.client.CloseIdleConnections() }

// rpcResult is one settled RPC: the final status and fully-read body,
// or the error that exhausted the retry budget.
type rpcResult struct {
	status int
	body   []byte
}

// transientStatus reports whether an HTTP status is worth retrying:
// server-side failures and backpressure, never semantic 4xx answers.
func transientStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// transientErr classifies a transport error. The caller's own
// cancellation is permanent (retrying a dead context is noise); every
// other transport failure — refused, reset, chaos-injected, a
// per-attempt deadline — is transient.
func transientErr(ctx context.Context, err error) bool {
	return ctx.Err() == nil && err != nil
}

// do runs one RPC with per-attempt deadlines and bounded retries. op
// names the call for chaos keying and metrics; maxBody bounds the
// response read; long marks a call whose attempt must not carry the
// short-RPC timeout (the response arrives when remote work finishes).
// A non-nil error means the retry budget is exhausted or the caller's
// context died; HTTP statuses (including 4xx/5xx) come back in the
// result for the caller to interpret.
func (r *rpc) do(ctx context.Context, op, method, url string, body []byte, maxBody int64, long bool) (rpcResult, error) {
	var lastErr error
	retries := r.cfg.retryBudget()
	for attempt := 0; ; attempt++ {
		// One span per logical attempt: the receiver adopts this span's
		// identity from the injected headers, so its server-side work
		// parents under exactly the attempt that carried it — retries
		// become visible sibling children in the stitched trace.
		actx, asp := trace.Start(ctx, "dist.rpc")
		asp.Set("op", op)
		asp.Set("target", r.target)
		asp.SetInt("attempt", int64(attempt))
		res, err := r.once(actx, op, method, url, body, maxBody, long)
		if err == nil {
			asp.SetInt("status", int64(res.status))
		}
		if err == nil && !transientStatus(res.status) {
			asp.End()
			return res, nil
		}
		if err == nil {
			lastErr = fmt.Errorf("dist: %s %s returned %d: %s", op, r.target, res.status, bytes.TrimSpace(res.body))
		} else {
			lastErr = err
		}
		if attempt >= retries || (err != nil && !transientErr(ctx, err)) {
			asp.EndWith(trace.Failed)
			if err == nil {
				// Out of retries on a 5xx: surface the status to the
				// caller (the coordinator's suspicion machinery wants the
				// code, not just an error string).
				return res, nil
			}
			return rpcResult{}, lastErr
		}
		asp.EndWith(trace.Retry)
		metrics.Add("dist.rpc.retried", 1)
		if err := sleepCtx(ctx, r.backoff(op, attempt)); err != nil {
			return rpcResult{}, lastErr
		}
	}
}

// once runs a single attempt.
func (r *rpc) once(ctx context.Context, op, method, url string, body []byte, maxBody int64, long bool) (rpcResult, error) {
	actx := ctx
	if t := r.cfg.attemptTimeout(); t > 0 && !long {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return rpcResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	req.Header.Set(chaos.TargetHeader, r.target)
	req.Header.Set(chaos.OpHeader, op)
	trace.InjectHTTP(actx, req.Header)
	resp, err := r.client.Do(req)
	if err != nil {
		return rpcResult{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		// A torn body (connection cut mid-response) is a transport
		// fault, not a short read to hand to the decoder.
		return rpcResult{}, fmt.Errorf("dist: %s %s: read body: %w", op, r.target, err)
	}
	return rpcResult{status: resp.StatusCode, body: data}, nil
}

// backoff computes the sleep before retry attempt+1: exponential in the
// attempt with a deterministic jitter in [d/2, d) drawn from the seeded
// splitmix stream keyed on (seed, target, op, attempt) — reruns of the
// same schedule sleep identically.
func (r *rpc) backoff(op string, attempt int) time.Duration {
	d := r.cfg.firstBackoff() << uint(min(attempt, 20))
	d = min(d, backoffMax)
	h := fnv.New64a()
	io.WriteString(h, r.target) //nolint:errcheck
	h.Write([]byte{0})          //nolint:errcheck
	io.WriteString(h, op)       //nolint:errcheck
	coins := num.NewSplitMix(num.Mix(r.cfg.Seed^int64(h.Sum64()), uint64(attempt)))
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + coins.Uint64()%half)
}

// sleepCtx sleeps for d or until ctx dies.
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

// errUnavailable marks a node-level transient condition a worker
// reports instead of failing a point (e.g. the store is unreachable
// from that worker): the coordinator should requeue the point, not
// record a permanent point failure and not necessarily bury the node.
var errUnavailable = errors.New("dist: temporarily unavailable")
