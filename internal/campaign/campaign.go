// Package campaign is the parallel experiment engine of the
// reproduction: it fans sets of flow option points — seed sweeps,
// frequency sweeps, bandit pulls, logfile-corpus generation — out over a
// license-constrained worker pool, with results that are bit-identical
// to the serial reference loops regardless of scheduling order, and
// memoizes flow results so identical points are never recomputed across
// studies — nor across processes: the memo cache takes a second Tier (a
// dist store, the durable Journal), and resuming a killed campaign is
// rerunning it with that tier attached.
//
// Determinism is by construction: every point carries its own seed, a
// flow run is a pure function of (design, Options), and results land in
// the output slice by point index. Parallelism therefore changes only
// wall-clock, never statistics — the property the paper's orchestration
// needs when it samples "5 concurrent runs per iteration" under compute
// and license constraints.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Point is one flow run in a campaign: a design, the option point to run
// it at, and its memo key. A Point is immutable and built by NewPoint, so
// its key is built once, however often a campaign revisits it, and cannot
// go stale behind an edited option point.
type Point struct {
	design *netlist.Netlist
	opts   flow.Options
	key    string
}

// NewPoint builds a point of design at opts. designKey identifies the
// design contents for memoization (derive it with KeyFor); the memo key is
// designKey + "\x00" + opts.Key(). An empty designKey disables the cache
// for the point (e.g. when the caller will mutate the result's netlist).
func NewPoint(design *netlist.Netlist, designKey string, opts flow.Options) Point {
	p := Point{design: design, opts: opts}
	if designKey != "" {
		p.key = designKey + "\x00" + opts.Key()
	}
	return p
}

// Design is the netlist the point runs.
func (p Point) Design() *netlist.Netlist { return p.design }

// Options is the option point the flow runs at.
func (p Point) Options() flow.Options { return p.opts }

// CacheKey is the memo key: the in-process cache, its tiers and the
// distributed campaign service all address a point by it, so a result
// computed anywhere is a hit everywhere. Empty when the point was built
// without a design key (uncacheable points cannot be distributed).
func (p Point) CacheKey() string { return p.key }

// KeyFor derives a NewPoint design key from the design's content
// fingerprint, so two structurally identical designs share cache
// entries and two different ones never collide on a name.
func KeyFor(design *netlist.Netlist) string {
	return fmt.Sprintf("%s#%016x", design.Name, design.Fingerprint())
}

// ID derives the stable identity of a campaign from its point list: the
// fnv-64a of every point's cache key in order. Every process that
// derives the same point list — the single-node sweep, each campd
// worker, the coordinator — computes the same id, which is what lets
// warehouse records from any node land in one queryable campaign.
func ID(pts []Point) string {
	h := fnv.New64a()
	for _, p := range pts {
		io.WriteString(h, p.CacheKey()) //nolint:errcheck
		h.Write([]byte{0})              //nolint:errcheck
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Points expands a base option point into one Point per seed — the
// universal shape of the repo's seed-sweep loops.
func Points(design *netlist.Netlist, key string, base flow.Options, seeds []int64) []Point {
	pts := make([]Point, len(seeds))
	for i, s := range seeds {
		opts := base
		opts.Seed = s
		pts[i] = NewPoint(design, key, opts)
	}
	return pts
}

// Retry configures fault tolerance: how many times a failed point is
// re-run before the campaign gives it up.
type Retry struct {
	// Max is the number of re-runs after the first attempt (0 = fail
	// fast on the first fault).
	Max int
	// Backoff is the pause before re-running a failed point, scaled
	// linearly by the attempt number (license servers recover; hammering
	// them does not help). Zero means retry immediately.
	Backoff time.Duration
}

// Config parameterizes an Engine.
type Config struct {
	// Workers is the concurrent flow-run limit (the license count).
	// <= 0 selects one worker per CPU.
	Workers int
	// Pool overrides Workers with an externally shared license pool.
	Pool *sched.Pool
	// Cache enables flow-result memoization when non-nil, and durability
	// with it: see Journal, which a cache takes as its Tier.
	Cache *Cache
	// Observer receives step records from every flow run. With more
	// than one worker, records from different points interleave
	// (records within one run stay ordered). Memoized points replay the
	// step records captured when their result was first computed, so every
	// point delivers one record set; points already in L1 when Run is
	// called replay on Run's goroutine, in point order, before the fan-out.
	// A tier hit — a resumed point, a dist worker served by the store —
	// replays from its worker goroutine, like the compute it stands for.
	Observer flow.Observer
	// Retry re-runs points that fail with a tool fault. Failed attempts
	// are never cached, so a retry always recomputes.
	Retry Retry
	// Faults injects deterministic tool crashes / license drops at flow
	// stage boundaries (nil = no injection). With Retry.Max large
	// enough for every point to eventually succeed, campaign results
	// are bit-identical to the fault-free run at any worker count.
	Faults *flow.FaultInjector
	// StageTimeout arms the per-stage hung-tool watchdog on every flow
	// run (see flow.RunConfig.StageTimeout). A reaped stage surfaces as
	// a FaultHang fault and follows the normal retry path.
	StageTimeout time.Duration
}

// Engine executes campaigns. The zero-value Engine is not usable; build
// one with New.
type Engine struct {
	pool         *sched.Pool
	cache        *Cache
	obs          flow.Observer
	retry        Retry
	faults       *flow.FaultInjector
	stageTimeout time.Duration
}

// New creates an engine.
func New(cfg Config) *Engine {
	pool := cfg.Pool
	if pool == nil {
		w := cfg.Workers
		if w <= 0 {
			w = runtime.NumCPU()
		}
		pool = sched.NewPool(w)
	}
	return &Engine{
		pool: pool, cache: cfg.Cache, obs: cfg.Observer, retry: cfg.Retry,
		faults: cfg.Faults, stageTimeout: cfg.StageTimeout,
	}
}

// Pool returns the engine's license pool (for Stats).
func (e *Engine) Pool() *sched.Pool { return e.pool }

// Cache returns the engine's memo cache (nil if memoization is off).
func (e *Engine) Cache() *Cache { return e.cache }

// PointError is one point's permanent failure (all retries exhausted).
type PointError struct {
	Index int
	Err   error
}

// RunError aggregates the permanently failed points of a campaign whose
// other points completed.
type RunError struct {
	Failed []PointError
}

// Unwrap exposes the per-point failures to errors.Is/errors.As, so a
// caller can match e.g. a *flow.FaultError through the aggregate.
func (e *RunError) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		errs[i] = f.Err
	}
	return errs
}

func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d point(s) failed permanently:", len(e.Failed))
	for i, f := range e.Failed {
		if i == 4 {
			fmt.Fprintf(&b, " ... (%d more)", len(e.Failed)-i)
			break
		}
		fmt.Fprintf(&b, " [%d] %v;", f.Index, f.Err)
	}
	return b.String()
}

// pointOutcome is runPoint's result: exactly one of res/err is set.
type pointOutcome struct {
	res *flow.Result
	err error
}

// Run executes every point and returns results in point order:
// out[i] corresponds to pts[i] no matter how the scheduler interleaves
// the work. On context cancellation it returns early with ctx.Err();
// abandoned points stay nil in the output and are never recorded as
// computed flow results. Points that fail with a tool fault are retried
// per Config.Retry; a point that fails permanently stays nil and Run
// returns a *RunError listing it.
func (e *Engine) Run(ctx context.Context, pts []Point) ([]*flow.Result, error) {
	ctx, runSpan := trace.Start(ctx, "campaign.run")
	runSpan.SetInt("points", int64(len(pts)))
	runSpan.SetInt("workers", int64(e.pool.Licenses()))
	results := make([]*flow.Result, len(pts))
	todo := e.revisit(ctx, pts, results)
	outs, ran, err := sched.MapCtx(ctx, e.pool, len(todo), func(j int) pointOutcome {
		i := todo[j]
		return e.runPoint(ctx, pts[i], i)
	})
	var failed []PointError
	abandoned := 0
	for j, i := range todo {
		switch {
		case !ran[j]:
			abandoned++
		case outs[j].err != nil:
			if ctx.Err() == nil {
				failed = append(failed, PointError{Index: i, Err: outs[j].err})
			}
		default:
			results[i] = outs[j].res
		}
	}
	if abandoned > 0 {
		metrics.Add("campaign.point.abandoned", int64(abandoned))
	}
	e.mirrorPoolStats()
	switch {
	case err != nil:
		runSpan.EndErr(err)
		return results, err
	case len(failed) > 0:
		runSpan.SetInt("failed", int64(len(failed)))
		runSpan.EndWith(trace.Failed)
		return results, &RunError{Failed: failed}
	}
	runSpan.End()
	return results, nil
}

// revisit is run's first pass, on the caller's goroutine and in point
// order: it probes L1 under each point's memo key, built with the point,
// and serves what L1 already holds into results. Only the rest — todo —
// go to the license pool: a revisit is a lookup, not a tool run, so it
// starts no goroutine, waits for no license and is no sched.* task. Its
// hits are counted once, when the pass ends. A cancelled context serves
// nothing; the pool abandons every point.
func (e *Engine) revisit(ctx context.Context, pts []Point, results []*flow.Result) (todo []int) {
	serve := e.cache != nil && ctx.Err() == nil
	var hits int64
	for i := range pts {
		p := &pts[i]
		if serve && p.key != "" {
			if ent, ok := e.cache.probe(p.key); ok {
				pctx, psp := pointSpan(ctx, p.opts.Seed, i)
				_, asp := trace.Start(pctx, "campaign.attempt")
				asp.SetInt("attempt", 0)
				e.deliverHit(psp, asp, 0, ent.Steps)
				results[i] = ent.Res
				hits++
				continue
			}
		}
		todo = append(todo, i)
	}
	if serve {
		e.cache.countHits(hits, false)
	}
	return todo
}

// deliverHit owns everything a memo hit emits besides its result, found
// by the revisit pass or by runPoint (a coalesced wait, a tier hit, a key
// that reached L1 after the pass): the records its compute emitted
// replayed to the Observer, and the point's two spans ended cache_hit.
func (e *Engine) deliverHit(psp, asp *trace.Span, attempt int, steps []flow.StepRecord) {
	if e.obs != nil {
		for _, rec := range steps {
			e.obs.OnStep(rec)
		}
		if len(steps) > 0 {
			metrics.Add("campaign.cache.replayed", 1)
		}
	}
	asp.EndWith(trace.CacheHit)
	psp.SetInt("attempts", int64(attempt+1))
	psp.EndWith(trace.CacheHit)
}

// pointSpan opens a point's span (index, seed, final outcome); each run or
// re-run gets a campaign.attempt child, so a retry storm shows under it.
func pointSpan(ctx context.Context, seed int64, index int) (context.Context, *trace.Span) {
	ctx, psp := trace.Start(ctx, "campaign.point")
	psp.SetInt("index", int64(index))
	psp.SetInt("seed", seed)
	return ctx, psp
}

// mirrorPoolStats publishes the license pool's counters into the
// process-wide registry under sched.* gauge names. The pool itself
// cannot (metrics depends on flow, flow on sched), so the campaign
// layer — the pool's main customer — mirrors after every run.
func (e *Engine) mirrorPoolStats() {
	peak, total, maxWait := e.pool.Stats()
	metrics.Set("sched.active.peak", int64(peak))
	metrics.Set("sched.task.total", int64(total))
	metrics.Set("sched.queue.depth", int64(maxWait))
}

// runPoint executes one point the revisit pass did not serve, with the
// engine's retry policy. Attempt numbers feed the fault injector, so a
// retried point draws fresh fault coins while staying deterministic at
// any worker count.
func (e *Engine) runPoint(ctx context.Context, p Point, index int) pointOutcome {
	ctx, psp := pointSpan(ctx, p.opts.Seed, index)
	var lastErr error
	for attempt := 0; attempt <= e.retry.Max; attempt++ {
		if attempt > 0 {
			metrics.Add("campaign.point.retried", 1)
			if e.retry.Backoff > 0 {
				select {
				case <-time.After(time.Duration(attempt) * e.retry.Backoff):
				case <-ctx.Done():
					psp.EndWith(trace.Aborted)
					return pointOutcome{err: ctx.Err()}
				}
			}
		}
		actx, asp := trace.Start(ctx, "campaign.attempt")
		asp.SetInt("attempt", int64(attempt))
		ent, hit, err := e.runOnce(actx, p, attempt)
		if err == nil {
			if hit {
				e.deliverHit(psp, asp, attempt, ent.Steps)
			} else {
				asp.End()
				psp.SetInt("attempts", int64(attempt+1))
				psp.End()
			}
			return pointOutcome{res: ent.Res}
		}
		if ctx.Err() != nil {
			// Cancellation is a campaign decision, not a tool fault —
			// never retried, never recorded.
			asp.EndWith(trace.Aborted)
			psp.EndWith(trace.Aborted)
			return pointOutcome{err: ctx.Err()}
		}
		asp.EndWith(trace.Retry)
		countFault(err)
		lastErr = err
	}
	metrics.Add("campaign.point.failed", 1)
	psp.EndWith(trace.Failed)
	return pointOutcome{err: lastErr}
}

// runOnce is a single attempt at a point: cache-aware and observer-aware.
// A point without a memo key, or an engine without a cache, computes
// directly (such a point has no identity to memoize or resume it under,
// so nothing records its steps). The bool reports a hit: the entry was
// served by the memo cache or its tier (including a coalesced wait on an
// in-flight compute) rather than computed by this attempt, and its
// records are deliverHit's to replay.
func (e *Engine) runOnce(ctx context.Context, p Point, attempt int) (Entry, bool, error) {
	if e.cache == nil || p.key == "" {
		res, err := e.compute(ctx, p, attempt, e.obs)
		return Entry{Res: res}, false, err
	}
	return e.cache.do(p.key, func() (Entry, error) {
		rec := &recordingObserver{next: e.obs}
		res, err := e.compute(ctx, p, attempt, rec)
		return Entry{Res: res, Steps: rec.steps}, err
	})
}

// compute runs the flow on one point under obs, and counts the run if it
// succeeded — the only kind a memo tier ever holds.
func (e *Engine) compute(ctx context.Context, p Point, attempt int, obs flow.Observer) (*flow.Result, error) {
	res, err := flow.RunCfg(ctx, p.design, p.opts, flow.RunConfig{
		Observer: obs, Faults: e.faults, Attempt: attempt, StageTimeout: e.stageTimeout,
	})
	if err != nil {
		return nil, err
	}
	e.countStopped(res)
	return res, nil
}

// countStopped mirrors live doomed-run stops into the campaign counters
// (flow cannot: the metrics package depends on it).
func (e *Engine) countStopped(res *flow.Result) {
	if res == nil || !res.Stopped || res.Route == nil {
		return
	}
	metrics.Add("campaign.doomed.stopped", 1)
	if saved := res.Route.IterationsBudget - res.Route.IterationsRun; saved > 0 {
		metrics.Add("campaign.doomed.saved_iters", int64(saved))
	}
}

// countFault classifies a retryable failure into the fault counters.
func countFault(err error) {
	var fe *flow.FaultError
	if errors.As(err, &fe) {
		metrics.Add("campaign.fault."+fe.Kind, 1)
		if fe.Kind == flow.FaultHang {
			metrics.Add("campaign.watchdog.fired", 1)
		}
		return
	}
	metrics.Add("campaign.fault.other", 1)
}

// recordingObserver captures the step records of one flow run (for the
// memo cache) while forwarding them live to the campaign observer.
type recordingObserver struct {
	next  flow.Observer
	steps []flow.StepRecord
}

// OnStep implements flow.Observer. flow.RunCfg supervises routing when
// its observer implements flow.RouteSupervisor; the recorder forwards
// that too so caching does not disable live doomed-run abort.
func (r *recordingObserver) OnStep(rec flow.StepRecord) {
	r.steps = append(r.steps, rec)
	if r.next != nil {
		r.next.OnStep(rec)
	}
}

// RouteIter implements flow.RouteSupervisor by delegating to the
// campaign observer when it supervises, else always Continue.
func (r *recordingObserver) RouteIter(design string, runSeed int64, iter int, drvs []int) route.IterAction {
	if sup, ok := r.next.(flow.RouteSupervisor); ok {
		return sup.RouteIter(design, runSeed, iter, drvs)
	}
	return route.Continue
}

// Map is the generic deterministic fan-out for campaign work that is
// not a whole flow run (synthesis-only noise sweeps, detailed-route
// corpus generation): f(i) must depend only on i, results land by
// index. Cancellation semantics match sched.MapCtx: out[i] is valid
// exactly when ran[i] is true.
func Map[T any](ctx context.Context, e *Engine, n int, f func(i int) T) (out []T, ran []bool, err error) {
	return sched.MapCtx(ctx, e.pool, n, f)
}

// Workers normalizes a worker-count knob shared by the experiment
// configs: n if positive, one per CPU when 0 or negative.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}
