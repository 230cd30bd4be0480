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
	"sync"
	"time"

	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/netlist"
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

// Config parameterizes an Engine.
type Config struct {
	// Workers is the concurrent flow-run limit (the license count).
	// <= 0 selects one worker per CPU.
	Workers int
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
	// StageTimeout arms the per-stage hung-tool watchdog on every flow
	// run (see flow.RunConfig.StageTimeout). A reaped point fails: it
	// stays nil, is never cached and Run reports it in a *RunError.
	StageTimeout time.Duration
}

// Engine executes campaigns. The zero-value Engine is not usable; build
// one with New.
type Engine struct {
	pool         *sched.Pool
	cache        *Cache
	obs          flow.Observer
	stageTimeout time.Duration
	// prefixes lets the engine's runs of one design and seed whose
	// synthesis resizes nothing share all but their slack: a frequency
	// sweep's points differ there only in their clock period. Run hands it
	// to the points sharers picks.
	prefixes *flow.Prefixes
}

// New creates an engine.
func New(cfg Config) *Engine {
	return &Engine{
		pool: sched.NewPool(Workers(cfg.Workers)), cache: cfg.Cache,
		obs: cfg.Observer, stageTimeout: cfg.StageTimeout, prefixes: flow.NewPrefixes(),
	}
}

// Pool returns the engine's license pool (for Stats).
func (e *Engine) Pool() *sched.Pool { return e.pool }

// Cache returns the engine's memo cache (nil if memoization is off).
func (e *Engine) Cache() *Cache { return e.cache }

// PointError is one point's failure.
type PointError struct {
	Index int
	Err   error
}

// RunError aggregates the failed points of a campaign whose other points
// completed.
type RunError struct {
	Failed []PointError
}

// Unwrap exposes the per-point failures to errors.Is/errors.As, so a
// caller can match e.g. sched.ErrHung through the aggregate.
func (e *RunError) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		errs[i] = f.Err
	}
	return errs
}

func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d point(s) failed:", len(e.Failed))
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
// computed flow results. Each point is attempted once: a point the
// watchdog reaps stays nil and Run returns a *RunError listing it.
func (e *Engine) Run(ctx context.Context, pts []Point) ([]*flow.Result, error) {
	ctx, runSpan := trace.Start(ctx, "campaign.run")
	runSpan.SetInt("points", int64(len(pts)))
	runSpan.SetInt("workers", int64(e.pool.Licenses()))
	results := make([]*flow.Result, len(pts))
	todo := e.revisit(ctx, pts, results)
	var plan *prefixPlan // one point has no other to share a prefix with
	if len(todo) > 1 {
		plan = &prefixPlan{pts: pts, todo: todo}
	}
	outs, ran, err := sched.MapCtx(ctx, e.pool, len(todo), func(j int) pointOutcome {
		i := todo[j]
		return e.runPoint(ctx, pts[i], i, func() *flow.Prefixes { return plan.memo(e.prefixes, j) })
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
				_, psp := pointSpan(ctx, p.opts.Seed, i)
				e.deliverHit(psp, ent.Steps)
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
// replayed to the Observer, and the point's span ended cache_hit.
func (e *Engine) deliverHit(psp *trace.Span, steps []flow.StepRecord) {
	if e.obs != nil {
		for _, rec := range steps {
			e.obs.OnStep(rec)
		}
		if len(steps) > 0 {
			metrics.Add("campaign.cache.replayed", 1)
		}
	}
	psp.EndWith(trace.CacheHit)
}

// pointSpan opens a point's span (index, seed, outcome).
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

// runPoint executes one point the revisit pass did not serve, once. A
// compute runs with the prefix memo that memo returns (nil for none).
func (e *Engine) runPoint(ctx context.Context, p Point, index int, memo func() *flow.Prefixes) pointOutcome {
	ctx, psp := pointSpan(ctx, p.opts.Seed, index)
	ent, hit, err := e.runOnce(ctx, p, memo)
	switch {
	case err == nil && hit:
		e.deliverHit(psp, ent.Steps)
		return pointOutcome{res: ent.Res}
	case err == nil:
		psp.End()
		return pointOutcome{res: ent.Res}
	case ctx.Err() != nil:
		// Cancellation is a campaign decision, not a tool failure —
		// never recorded.
		psp.EndWith(trace.Aborted)
		return pointOutcome{err: ctx.Err()}
	}
	if errors.Is(err, sched.ErrHung) {
		metrics.Add("campaign.watchdog.fired", 1)
	}
	metrics.Add("campaign.point.failed", 1)
	psp.EndWith(trace.Failed)
	return pointOutcome{err: err}
}

// runOnce runs a point: cache-aware and observer-aware. A point without a
// memo key, or an engine without a cache, computes directly (such a point
// has no identity to memoize or resume it under, so nothing records its
// steps). The bool reports a hit: the entry was served by the memo cache
// or its tier (including a coalesced wait on an in-flight compute) rather
// than computed here, and its records are deliverHit's to replay.
func (e *Engine) runOnce(ctx context.Context, p Point, memo func() *flow.Prefixes) (Entry, bool, error) {
	if e.cache == nil || p.key == "" {
		res, err := e.compute(ctx, p, e.obs, memo())
		return Entry{Res: res}, false, err
	}
	return e.cache.do(p.key, func() (Entry, error) {
		rec := &recordingObserver{next: e.obs}
		res, err := e.compute(ctx, p, rec, memo())
		return Entry{Res: res, Steps: rec.steps}, err
	})
}

// compute runs the flow on one point under obs, with the prefix memo memo
// (nil for none). A failed run returns no result, so a memo tier only ever
// holds completed ones.
func (e *Engine) compute(ctx context.Context, p Point, obs flow.Observer, memo *flow.Prefixes) (*flow.Result, error) {
	res, err := flow.RunCfg(ctx, p.design, p.opts, flow.RunConfig{Observer: obs, StageTimeout: e.stageTimeout, Prefixes: memo})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// prefixPlan picks the points of a Run that the engine's prefix memo
// serves (sharers) when the first of them computes, so a Run whose cache
// tiers serve every point never picks.
type prefixPlan struct {
	once   sync.Once
	pts    []Point
	todo   []int
	shares []bool
}

// memo returns m for the plan's todo point j if the plan picks it, else
// nil; a nil plan picks none.
func (pl *prefixPlan) memo(m *flow.Prefixes, j int) *flow.Prefixes {
	if pl == nil {
		return nil
	}
	pl.once.Do(func() { pl.shares = sharers(pl.pts, pl.todo) })
	if pl.shares != nil && pl.shares[j] {
		return m
	}
	return nil
}

// sharers reports which of the todo points the engine's prefix memo may
// serve: those with a memo key (their results are immutable, so the memo may
// keep one as a donor) whose design and flow.Options.PrefixOptions another
// such point of todo shares. Only they look a prefix up or store one, so a
// Run whose points share no prefix — a dist worker's single point — leaves
// the memo as it found it. Nil when no point may.
func sharers(pts []Point, todo []int) []bool {
	type prefixID struct {
		design *netlist.Netlist
		opts   flow.Options
	}
	ids := make([]prefixID, len(todo))
	count := make(map[prefixID]int, len(todo))
	for j, i := range todo {
		if p := &pts[i]; p.key != "" {
			ids[j] = prefixID{p.design, p.opts.PrefixOptions()}
			count[ids[j]]++
		}
	}
	var shares []bool
	for j, id := range ids {
		if id.design != nil && count[id] > 1 {
			if shares == nil {
				shares = make([]bool, len(todo))
			}
			shares[j] = true
		}
	}
	return shares
}

// recordingObserver captures the step records of one flow run (for the
// memo cache) while forwarding them live to the campaign observer.
type recordingObserver struct {
	next  flow.Observer
	steps []flow.StepRecord
}

// OnStep implements flow.Observer.
func (r *recordingObserver) OnStep(rec flow.StepRecord) {
	r.steps = append(r.steps, rec)
	if r.next != nil {
		r.next.OnStep(rec)
	}
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
