// Package sched provides the license/server-constrained dispatcher used
// to model concurrent tool runs: the paper's bandit orchestration is
// "constrained chiefly by compute and license resources", and this pool
// is that constraint.
package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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

// RunCtx executes the tasks under the license limit, blocking until all
// complete or ctx is cancelled. min(licenses, len(tasks)) workers, the
// caller's goroutine one of them, each claim the next task index in turn,
// so tasks start in index order and a task costs no goroutine of its own.
// Every task counts as queued, and its sched.wait span opens, when RunCtx
// is entered, so admission is never serialized behind a full pool. On
// cancellation, tasks not yet started are abandoned at once (their
// functions never run), in-flight tasks finish, and ctx.Err() is returned
// — the early-abort path a doomed-run STOP uses to kill the rest of a
// campaign.
func (p *Pool) RunCtx(ctx context.Context, tasks []func()) error {
	n := len(tasks)
	if n == 0 {
		return ctx.Err()
	}
	p.enqueue(n)
	// Queue-wait vs run time are separate spans, so the license-
	// contention signal (sched.wait p90 vs sched.run p90) falls
	// straight out of the histograms.
	var waits []*trace.Span
	if trace.Active() != nil {
		waits = make([]*trace.Span, n)
		for i := range waits {
			_, waits[i] = trace.Start(ctx, "sched.wait")
		}
	}
	wait := func(i int) *trace.Span {
		if waits == nil {
			return nil
		}
		return waits[i]
	}
	var next atomic.Int64
	claim := func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}
	abandon := func(i int) {
		p.dequeue()
		wait(i).EndWith(trace.Aborted)
	}
	if ctx.Done() != nil {
		// Cancellation claims every task no worker has, so the queue
		// empties the moment a doomed-run STOP fires, not when a license
		// frees.
		abandoned := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			defer close(abandoned)
			for i, ok := claim(); ok; i, ok = claim() {
				abandon(i)
			}
		})
		defer func() {
			if !stop() {
				<-abandoned
			}
		}()
	}
	work := func() {
		for i, ok := claim(); ok; i, ok = claim() {
			// A task claimed as the context died is abandoned too, so a
			// pre-cancelled run starts nothing.
			if ctx.Err() != nil {
				abandon(i)
				continue
			}
			p.start()
			wait(i).End()
			_, rsp := trace.Start(ctx, "sched.run")
			tasks[i]()
			rsp.End()
			p.leave()
		}
	}
	var wg sync.WaitGroup
	helpers := min(p.licenses, n) - 1
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return ctx.Err()
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

// enqueue counts n tasks as queued for a license.
func (p *Pool) enqueue(n int) {
	p.mu.Lock()
	p.waiting += n
	if p.waiting > p.maxWait {
		p.maxWait = p.waiting
	}
	p.mu.Unlock()
}

// dequeue takes an abandoned task off the queue.
func (p *Pool) dequeue() {
	p.mu.Lock()
	p.waiting--
	p.mu.Unlock()
}

// start moves a queued task onto a license.
func (p *Pool) start() {
	p.mu.Lock()
	p.waiting--
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
