// Package trace is the flow-wide tracing layer of the reproduction: the
// paper's METRICS premise ("collect everything" — Fig. 11) applied to
// the orchestration infrastructure itself. Every interesting unit of
// work — a campaign point, a flow stage, a detailed-routing rip-up
// pass, a license-queue wait, a journal fsync — is a span: a named,
// timed interval with an outcome, attributes, and a parent, so a whole
// overnight campaign reconstructs into one hierarchical timeline.
//
// Spans propagate through context.Context and, once they end, record
// into an in-memory collector (one lock, one bounded ring of finished
// spans) and feed per-name log-bucketed latency histograms
// (p50/p90/p99 snapshots). The tracer holds no span before it ends: a
// span that is never ended is garbage once its starter drops it. A
// finished trace exports as Chrome trace_event JSON (see chrome.go)
// and opens directly in chrome://tracing or Perfetto; the spans that
// finished last are visible on the METRICS server's /debug/spans
// endpoint while the campaign is still running.
//
// Tracing is off by default and must cost nothing when off: Start on a
// disabled tracer is a single atomic load + nil check, every *Span
// method is nil-safe, and callers attach attributes through those
// nil-safe methods so the disabled path never allocates.
package trace

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies how a span ended.
type Outcome string

const (
	// OK is a span that completed normally (the default on End).
	OK Outcome = "ok"
	// CacheHit is a span served from the memo cache instead of computed.
	CacheHit Outcome = "cache-hit"
	// Retry is a failed attempt that will be re-run.
	Retry Outcome = "retry"
	// Hung is a span reaped by the hung-stage watchdog.
	Hung Outcome = "hung"
	// Aborted is a span killed by context cancellation.
	Aborted Outcome = "aborted"
	// Stopped is a run terminated live by a doomed-run supervisor.
	Stopped Outcome = "stopped"
	// Failed is a permanent failure (a point reaped by the watchdog, an
	// append error, an RPC with retries exhausted, ...).
	Failed Outcome = "failed"
)

// Attr is one key/value annotation on a span. Values are strings; use
// the Span.Set* helpers to format numbers without paying when tracing
// is off.
type Attr struct {
	Key string
	Val string
}

// SpanData is one finished span as the collector retains it.
type SpanData struct {
	ID      uint64
	Parent  uint64 // 0 = root
	Name    string
	Start   time.Duration // offset from the tracer epoch
	Dur     time.Duration
	Outcome Outcome
	Attrs   []Attr
}

// Span is an in-flight span. The zero of *Span is nil, and every method
// is a no-op on a nil receiver — the disabled-tracer fast path.
// A span is owned by the goroutine that started it, and the tracer
// never sees it until End copies it into the ring.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	root   uint64 // root ancestor id — the trace id this span belongs to
	name   string
	start  time.Duration
	attrs  []Attr
	out    Outcome
	ended  atomic.Bool
}

// Tracer collects spans. Create one with New, arm it process-wide with
// Enable, and export with WriteChromeTrace / Snapshot / Histograms.
type Tracer struct {
	epoch time.Time
	// now returns the monotonic offset from epoch; tests replace it for
	// deterministic timestamps.
	now func() time.Duration

	ids   atomic.Uint64
	hists *HistSet

	// limit caps retained finished spans (<= 0 = unbounded); it is set
	// once, before any span.
	limit int

	// mu guards everything below.
	mu sync.Mutex
	// done holds the retained finished spans. With a limit it is a ring:
	// once len(done) == limit, done[next] is the oldest span, the slot
	// the next finished span overwrites.
	done    []SpanData
	next    int
	dropped int64
}

// DefaultRetention is the finished-span cap the CLIs arm by default:
// 64k spans at ~128 bytes each (SpanData plus a few attrs) bounds the
// collector near 8 MB however long the campaign runs. Override with
// the -span-retention flag.
const DefaultRetention = 1 << 16

// Config parameterizes a tracer beyond the retention cap.
type Config struct {
	// Retention caps retained finished spans, oldest dropped first;
	// <= 0 is unbounded.
	Retention int
	// NodeID namespaces span ids: ids are allocated from
	// NodeID<<48 + 1 upward, so spans from up to 65536 processes can be
	// shipped to one collector without id collisions (2^48 spans per
	// node before wraparound — far beyond any campaign).
	NodeID uint16
}

// New creates a tracer retaining up to limit finished spans
// (limit <= 0 = unbounded). Histograms are always on; only the
// finished-span buffer is bounded.
func New(limit int) *Tracer {
	return NewCfg(Config{Retention: limit})
}

// NewCfg creates a tracer from a Config.
func NewCfg(cfg Config) *Tracer {
	t := &Tracer{epoch: time.Now(), hists: NewHistSet(), limit: cfg.Retention}
	t.now = func() time.Duration { return time.Since(t.epoch) }
	t.ids.Store(uint64(cfg.NodeID) << 48)
	return t
}

// Epoch returns the tracer's wall-clock origin: span Start offsets are
// relative to it, and the collector uses the difference between two
// tracers' epochs to shift shipped spans onto its own timeline.
func (t *Tracer) Epoch() time.Time { return t.epoch }

// SetClock replaces the tracer's clock with a deterministic one (tests:
// golden traces need stable timestamps). Must be called before any span
// starts.
func (t *Tracer) SetClock(now func() time.Duration) { t.now = now }

// active is the process-wide tracer; nil = tracing off.
var active atomic.Pointer[Tracer]

// Enable arms t as the process-wide tracer (nil disables).
func Enable(t *Tracer) { active.Store(t) }

// Disable turns process-wide tracing off.
func Disable() { active.Store(nil) }

// Active returns the armed tracer, or nil when tracing is off.
func Active() *Tracer { return active.Load() }

// ctxKey carries the current span through a context.
type ctxKey struct{}

// remoteKey carries an adopted remote parent (a span living in another
// process's tracer) through a context — the receiving half of the
// Trace-Id/Span-Id RPC headers.
type remoteKey struct{}

type remoteRef struct {
	trace uint64 // remote root ancestor id
	span  uint64 // remote parent span id
}

// FromContext returns the span carried by ctx (nil if none or tracing
// is off).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Inject extracts the propagation identity of the span in ctx: the
// trace id (root ancestor) and the span id to parent remote children
// under. Both are 0 when ctx carries no span — callers skip stamping
// headers in that case.
func Inject(ctx context.Context) (traceID, spanID uint64) {
	if s := FromContext(ctx); s != nil {
		return s.root, s.id
	}
	return 0, 0
}

// Adopt returns a context under which the next Start parents its span
// on the remote span (traceID, spanID) — the span id stamped by a peer
// process's Inject. A zero spanID returns ctx unchanged. A local span
// already in ctx wins over the remote ref (an in-process caller's chain
// is always more precise than a header).
func Adopt(ctx context.Context, traceID, spanID uint64) context.Context {
	if spanID == 0 {
		return ctx
	}
	if traceID == 0 {
		traceID = spanID
	}
	return context.WithValue(ctx, remoteKey{}, remoteRef{trace: traceID, span: spanID})
}

// Start begins a span named name as a child of the span in ctx (root if
// none) and returns a context carrying it. With tracing disabled it
// returns (ctx, nil) after one atomic load — callers annotate via the
// nil-safe Span methods, so a disabled call site does no work and no
// allocation.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := active.Load()
	if t == nil {
		return ctx, nil
	}
	return t.StartOn(ctx, name)
}

// Begin starts a detached root span with no context — for call sites
// that have no context to thread (journal fsync under a mutex). Returns
// nil when tracing is off.
func Begin(name string) *Span {
	t := active.Load()
	if t == nil {
		return nil
	}
	return t.start(name, 0, 0)
}

// StartOn begins a span on an explicit tracer (tests and tools that
// don't want the process-wide one).
func (t *Tracer) StartOn(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var parent, root uint64
	if p := FromContext(ctx); p != nil {
		parent, root = p.id, p.root
	} else if rp, ok := ctx.Value(remoteKey{}).(remoteRef); ok {
		parent, root = rp.span, rp.trace
	}
	s := t.start(name, parent, root)
	return context.WithValue(ctx, ctxKey{}, s), s
}

func (t *Tracer) start(name string, parent, root uint64) *Span {
	s := &Span{
		tr:     t,
		id:     t.ids.Add(1),
		parent: parent,
		root:   root,
		name:   name,
		start:  t.now(),
	}
	if s.root == 0 { // no parent: the span roots its own trace
		s.root = s.id
	}
	return s
}

// ID returns the span id (0 on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Set attaches a string attribute. No-op on nil.
func (s *Span) Set(key, val string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{key, val})
}

// SetInt attaches an integer attribute. No-op on nil — the formatting
// cost is only paid when tracing is armed.
func (s *Span) SetInt(key string, val int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{key, strconv.FormatInt(val, 10)})
}

// End finishes the span with its recorded outcome (OK if none was set).
// No-op on nil; double-End is safe and keeps the first.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	if s.out == "" {
		s.out = OK
	}
	dur := s.tr.now() - s.start
	if dur < 0 {
		dur = 0
	}
	s.tr.finish(s, dur)
}

// EndWith finishes the span with an explicit outcome. No-op on nil.
func (s *Span) EndWith(o Outcome) {
	if s == nil {
		return
	}
	s.out = o
	s.End()
}

// EndErr finishes the span with an outcome derived from err: nil = OK,
// context cancellation = Aborted, anything else = Failed. No-op on nil.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	switch {
	case err == nil:
		s.End()
	case err == context.Canceled || err == context.DeadlineExceeded:
		s.EndWith(Aborted)
	default:
		s.EndWith(Failed)
	}
}

func (t *Tracer) finish(s *Span, dur time.Duration) {
	sd := SpanData{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Dur: dur, Outcome: s.out, Attrs: s.attrs,
	}
	t.mu.Lock()
	t.keepLocked(sd)
	t.mu.Unlock()
	t.hists.Observe(s.name, dur)
}

// keepLocked retains sd; in a full ring it overwrites the oldest span
// and counts that one as dropped. t.mu must be held.
func (t *Tracer) keepLocked(sd SpanData) {
	if t.limit <= 0 || len(t.done) < t.limit {
		t.done = append(t.done, sd)
		return
	}
	t.done[t.next] = sd
	t.next++
	if t.next == t.limit {
		t.next = 0
	}
	t.dropped++
}

// Snapshot returns every retained finished span, sorted by start time
// (ties by id), plus the count of spans dropped to the retention limit.
func (t *Tracer) Snapshot() (spans []SpanData, dropped int64) {
	return t.collect(false)
}

// Recent returns the n retained spans that finished last (or were ingested
// last), sorted like Snapshot, plus how many spans are retained in all and
// the count dropped to the retention limit. It copies the ring's newest n
// slots under the lock and no more, so a scrape that serves a few spans
// does not pay for a full ring. The copy is sized outside the lock, as in
// collect, and never beyond what the ring holds, whatever n asks for: n
// may come straight from a query string.
func (t *Tracer) Recent(n int) (spans []SpanData, retained int, dropped int64) {
	n = max(n, 0)
	t.mu.Lock()
	size := min(n, len(t.done))
	t.mu.Unlock()
	spans = make([]SpanData, 0, size)
	t.mu.Lock()
	retained, dropped = len(t.done), t.dropped
	n = min(n, retained)
	// The newest span sits just before t.next in a full ring, and at the
	// end of one still filling (where t.next is 0). The newest n run back
	// from there, past slot 0 to the ring's end if they must.
	end := t.next
	if end == 0 {
		end = retained
	}
	newer := t.done[max(end-n, 0):end]
	spans = append(append(spans, t.done[retained-(n-len(newer)):]...), newer...)
	t.mu.Unlock()
	sortByStart(spans)
	return spans, retained, dropped
}

// collect copies the retained spans under the lock, emptying the ring
// when drain is set, and sorts the copy outside it. The copy is sized
// outside the lock too: allocating a full ring under it stalls every
// span that finishes meanwhile for milliseconds.
func (t *Tracer) collect(drain bool) ([]SpanData, int64) {
	t.mu.Lock()
	n := len(t.done)
	t.mu.Unlock()
	spans := make([]SpanData, 0, n)
	t.mu.Lock()
	spans = append(spans, t.done...)
	dropped := t.dropped
	if drain {
		t.done, t.next = t.done[:0], 0
	}
	t.mu.Unlock()
	sortByStart(spans)
	return spans, dropped
}

// sortByStart orders spans by start time, ties by id.
func sortByStart(spans []SpanData) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
}

// Drain removes and returns every retained finished span, sorted like
// Snapshot. It is the shipping half of span collection: a worker drains
// its tracer periodically and POSTs the batch to the coordinator's
// collector, so retention memory does not accumulate on the node.
func (t *Tracer) Drain() []SpanData {
	spans, _ := t.collect(true)
	return spans
}

// Ingest inserts finished spans shipped from another tracer, shifting
// each Start by skew (shipper epoch minus this tracer's epoch) so all
// nodes land on one timeline. Span ids must be pre-namespaced via
// Config.NodeID. Durations feed this tracer's histograms, giving the
// collector fleet-wide percentiles.
func (t *Tracer) Ingest(spans []SpanData, skew time.Duration) {
	t.keep(spans, skew)
	for _, sd := range spans {
		t.hists.Observe(sd.Name, sd.Dur)
	}
}

// keep retains spans, each Start shifted by skew, without observing
// them in the histograms.
func (t *Tracer) keep(spans []SpanData, skew time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sd := range spans {
		sd.Start += skew
		t.keepLocked(sd)
	}
}

// Histograms returns the tracer's per-span-name latency histograms.
func (t *Tracer) Histograms() *HistSet { return t.hists }
