// Package sched provides the license/server-constrained dispatcher used
// to model concurrent tool runs: the paper's bandit orchestration is
// "constrained chiefly by compute and license resources", and this pool
// is that constraint.
package sched

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/trace"
)

// Pool limits concurrent task execution to a fixed number of licenses.
// A task is a tool run: campaign memo hits are lookups and never get here.
type Pool struct {
	licenses int

	mu      sync.Mutex
	active  int
	peak    int
	total   int
	waiting int
	maxWait int
}

// NewPool creates a pool with n licenses (n < 1 is clamped to 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{licenses: n}
}

// Licenses returns the pool size.
func (p *Pool) Licenses() int { return p.licenses }

// Run executes the tasks with at most Licenses() of them in flight at a
// time, blocking until all complete.
func (p *Pool) Run(tasks []func()) {
	p.RunCtx(context.Background(), tasks) //nolint:errcheck // background ctx never cancels
}

// RunCtx executes the tasks under the license limit, blocking until all
// complete or ctx is cancelled. All tasks are spawned immediately and
// acquire a license from inside their goroutine, so task launch is never
// serialized behind a full pool. On cancellation, tasks still waiting
// for a license are abandoned (their functions never run), in-flight
// tasks finish, and ctx.Err() is returned — the early-abort path a
// doomed-run STOP uses to kill the rest of a campaign.
func (p *Pool) RunCtx(ctx context.Context, tasks []func()) error {
	sem := make(chan struct{}, p.licenses)
	var wg sync.WaitGroup
	for _, task := range tasks {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			p.enqueue()
			// Queue-wait vs run time are separate spans, so the license-
			// contention signal (sched.wait p90 vs sched.run p90) falls
			// straight out of the histograms.
			_, wsp := trace.Start(ctx, "sched.wait")
			select {
			case sem <- struct{}{}:
				p.dequeue()
				// The select picks pseudo-randomly when both cases are
				// ready, so a task can win a license from an already-dead
				// context; re-check so a doomed-run STOP kills queued work
				// the moment it fires instead of letting stragglers run.
				if ctx.Err() != nil {
					wsp.EndWith(trace.Aborted)
					<-sem
					return
				}
				wsp.End()
			case <-ctx.Done():
				p.dequeue()
				wsp.EndWith(trace.Aborted)
				return
			}
			p.enter()
			_, rsp := trace.Start(ctx, "sched.run")
			f()
			rsp.End()
			p.leave()
			<-sem
		}(task)
	}
	wg.Wait()
	return ctx.Err()
}

// Map runs f over 0..n-1 under the license limit and collects results.
func Map[T any](p *Pool, n int, f func(i int) T) []T {
	out, _, _ := MapCtx(context.Background(), p, n, f)
	return out
}

// MapCtx runs f over 0..n-1 under the license limit with cancellation.
// out[i] holds f(i) exactly when ran[i] is true; slots of abandoned
// tasks keep their zero value with ran[i] false, so a genuinely computed
// zero value is never confused with a task that was cancelled before it
// started. The context error is returned on cancellation.
func MapCtx[T any](ctx context.Context, p *Pool, n int, f func(i int) T) (out []T, ran []bool, err error) {
	out = make([]T, n)
	ran = make([]bool, n)
	tasks := make([]func(), n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func() {
			out[i] = f(i)
			ran[i] = true
		}
	}
	err = p.RunCtx(ctx, tasks)
	return out, ran, err
}

func (p *Pool) enqueue() {
	p.mu.Lock()
	p.waiting++
	if p.waiting > p.maxWait {
		p.maxWait = p.waiting
	}
	p.mu.Unlock()
}

func (p *Pool) dequeue() {
	p.mu.Lock()
	p.waiting--
	p.mu.Unlock()
}

func (p *Pool) enter() {
	p.mu.Lock()
	p.active++
	p.total++
	if p.active > p.peak {
		p.peak = p.active
	}
	p.mu.Unlock()
}

func (p *Pool) leave() {
	p.mu.Lock()
	p.active--
	p.mu.Unlock()
}

// ErrHung is returned by Guard when the guarded function misses its
// deadline and is abandoned.
var ErrHung = errors.New("sched: watchdog deadline exceeded")

// Guard runs f under a hung-task watchdog: f receives a context that is
// cancelled when the deadline expires, and Guard returns ErrHung
// without waiting for f to come back — exactly as a flow manager reaps
// a wedged tool process and releases its license. With timeout <= 0 the
// watchdog is off and f runs inline on the caller's goroutine.
//
// Contract for f when a watchdog is armed: after its context is
// cancelled it must stop touching state shared with the caller, because
// the caller may already have moved on. Callers should have f compute
// into locals and publish them only after Guard returns nil (f is then
// known to have finished: the completion is synchronized).
func Guard(ctx context.Context, timeout time.Duration, f func(ctx context.Context)) error {
	if timeout <= 0 {
		f(ctx)
		return nil
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f(sctx)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		return ErrHung
	}
}

// Stats reports usage counters: the peak concurrency observed, the total
// tasks executed, and the peak number of tasks queued for a license (the
// license-contention signal).
func (p *Pool) Stats() (peak, total, maxWaiting int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak, p.total, p.maxWait
}
