package trace

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic monotonic clock: every read advances by
// step, so spans get stable, distinct timestamps.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Duration
	step time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += c.step
	return c.t
}

func TestDisabledTracerIsNilSafe(t *testing.T) {
	Disable()
	ctx, sp := Start(context.Background(), "x")
	if sp != nil {
		t.Fatal("disabled Start returned a span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("disabled Start polluted the context")
	}
	// Every method must be a no-op on nil.
	sp.Set("k", "v")
	sp.SetInt("i", 1)
	sp.SetFloat("f", 1.5)
	sp.SetOutcome(Failed)
	sp.EndWith(Hung)
	sp.EndErr(context.Canceled)
	sp.End()
	if sp.ID() != 0 {
		t.Fatal("nil span has an id")
	}
	if Begin("y") != nil {
		t.Fatal("disabled Begin returned a span")
	}
}

func TestSpanHierarchyAndOutcomes(t *testing.T) {
	tr := New(0)
	Enable(tr)
	defer Disable()

	ctx, root := Start(context.Background(), "campaign.run")
	root.SetInt("points", 2)
	cctx, child := Start(ctx, "campaign.point")
	child.Set("key", "a")
	_, leaf := Start(cctx, "flow.synth")
	leaf.EndWith(Hung)
	child.EndErr(context.Canceled)
	root.End()

	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d", dropped)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["campaign.point"].Parent != byName["campaign.run"].ID {
		t.Fatal("child not parented to root")
	}
	if byName["flow.synth"].Parent != byName["campaign.point"].ID {
		t.Fatal("leaf not parented to child")
	}
	if byName["flow.synth"].Outcome != Hung {
		t.Fatalf("leaf outcome %q", byName["flow.synth"].Outcome)
	}
	if byName["campaign.point"].Outcome != Aborted {
		t.Fatalf("cancelled child outcome %q", byName["campaign.point"].Outcome)
	}
	if byName["campaign.run"].Outcome != OK {
		t.Fatalf("root outcome %q", byName["campaign.run"].Outcome)
	}
	if got := byName["campaign.run"].Attrs; len(got) != 1 || got[0].Key != "points" || got[0].Val != "2" {
		t.Fatalf("root attrs %+v", got)
	}
}

func TestDoubleEndKeepsFirst(t *testing.T) {
	tr := New(0)
	Enable(tr)
	defer Disable()
	_, sp := Start(context.Background(), "x")
	sp.EndWith(Stopped)
	sp.EndWith(Failed) // ignored
	sp.End()           // ignored
	spans, _ := tr.Snapshot()
	if len(spans) != 1 || spans[0].Outcome != Stopped {
		t.Fatalf("spans %+v", spans)
	}
}

// TestConcurrentSpans is the -race satellite: N goroutines each emit M
// parent+child span pairs; the collector must retain exactly N*M*2
// spans with well-formed parent/child ids.
func TestConcurrentSpans(t *testing.T) {
	const N, M = 16, 50
	tr := New(0)
	Enable(tr)
	defer Disable()

	var wg sync.WaitGroup
	for g := 0; g < N; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for m := 0; m < M; m++ {
				ctx, parent := Start(context.Background(), "worker.unit")
				parent.SetInt("goroutine", int64(g))
				_, child := Start(ctx, "worker.sub")
				child.SetInt("m", int64(m))
				child.End()
				parent.End()
			}
		}(g)
	}
	wg.Wait()

	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d spans", dropped)
	}
	if len(spans) != N*M*2 {
		t.Fatalf("got %d spans, want %d", len(spans), N*M*2)
	}
	ids := map[uint64]SpanData{}
	for _, s := range spans {
		if s.ID == 0 {
			t.Fatal("zero span id")
		}
		if _, dup := ids[s.ID]; dup {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = s
	}
	roots, children := 0, 0
	for _, s := range spans {
		switch s.Name {
		case "worker.unit":
			roots++
			if s.Parent != 0 {
				t.Fatalf("root span has parent %d", s.Parent)
			}
		case "worker.sub":
			children++
			p, ok := ids[s.Parent]
			if !ok {
				t.Fatalf("child %d has unknown parent %d", s.ID, s.Parent)
			}
			if p.Name != "worker.unit" {
				t.Fatalf("child parented to %q", p.Name)
			}
		default:
			t.Fatalf("unexpected span %q", s.Name)
		}
	}
	if roots != N*M || children != N*M {
		t.Fatalf("roots=%d children=%d, want %d each", roots, children, N*M)
	}
	// Histograms saw every observation.
	for _, snap := range tr.Histograms().Snapshots() {
		if snap.Count != N*M {
			t.Fatalf("hist %q count %d, want %d", snap.Name, snap.Count, N*M)
		}
	}
}

func TestRetentionLimitDrops(t *testing.T) {
	tr := New(shardCount) // one retained span per shard
	Enable(tr)
	defer Disable()
	for i := 0; i < 10*shardCount; i++ {
		_, sp := Start(context.Background(), "x")
		sp.End()
	}
	spans, dropped := tr.Snapshot()
	if len(spans) != shardCount {
		t.Fatalf("retained %d, want %d", len(spans), shardCount)
	}
	if dropped != int64(9*shardCount) {
		t.Fatalf("dropped %d, want %d", dropped, 9*shardCount)
	}
	// Histograms are not subject to retention.
	snaps := tr.Histograms().Snapshots()
	if len(snaps) != 1 || snaps[0].Count != int64(10*shardCount) {
		t.Fatalf("hist snaps %+v", snaps)
	}
}

func TestLiveSpans(t *testing.T) {
	tr := New(0)
	Enable(tr)
	defer Disable()
	ctx, root := Start(context.Background(), "campaign.run")
	_, child := Start(ctx, "flow.run")

	live := tr.Live()
	if len(live) != 2 {
		t.Fatalf("live %d, want 2", len(live))
	}
	if live[0].Name != "campaign.run" || live[1].Name != "flow.run" {
		t.Fatalf("live order %q, %q", live[0].Name, live[1].Name)
	}
	if live[1].Parent != root.ID() {
		t.Fatal("live child parent wrong")
	}
	child.End()
	root.End()
	if got := tr.Live(); len(got) != 0 {
		t.Fatalf("live after end: %d", len(got))
	}
}

func TestHistQuantiles(t *testing.T) {
	h := &Hist{}
	// 90 fast observations at ~2µs, 10 slow at ~1000µs.
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000 * time.Microsecond)
	}
	s := h.Snapshot("mix")
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if s.P50 > 8 {
		t.Fatalf("p50 %gµs, want small", s.P50)
	}
	if s.P99 < 512 {
		t.Fatalf("p99 %gµs, want slow bucket", s.P99)
	}
	if s.Max < 999 || s.Max > 1001 {
		t.Fatalf("max %gµs", s.Max)
	}
	if len(s.Buckets) != 2 {
		t.Fatalf("buckets %+v", s.Buckets)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

// TestHistSnapshotUnderWriters checks snapshot consistency while
// writers are active: every snapshot must be internally coherent
// (bucket sum == count field derived from the same loads).
func TestHistSnapshotUnderWriters(t *testing.T) {
	hs := NewHistSet()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				hs.Observe("concurrent", time.Duration(1+i%2000)*time.Microsecond)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := hs.Hist("concurrent").Snapshot("concurrent")
		var total int64
		for _, b := range s.Buckets {
			total += b.Count
		}
		if total != s.Count {
			t.Fatalf("iteration %d: bucket sum %d != count %d", i, total, s.Count)
		}
	}
	close(stop)
	wg.Wait()
}

func TestHistSetWriteFormat(t *testing.T) {
	hs := NewHistSet()
	hs.Observe("b.second", 10*time.Microsecond)
	hs.Observe("a.first", 5*time.Microsecond)
	var got []string
	for _, s := range hs.Snapshots() {
		got = append(got, s.Name)
	}
	if fmt.Sprint(got) != "[a.first b.second]" {
		t.Fatalf("unsorted snapshots: %v", got)
	}
}

// TestHistMicrosecondBuckets: a span of at least 1 µs lands in the
// bucket of its whole microseconds, [2^(j-1), 2^j) with j =
// bits.Len64(µs) — the bounds of an integer-microsecond histogram — so
// span quantiles read the same as with one.
func TestHistMicrosecondBuckets(t *testing.T) {
	for k := 0; k < 42; k++ {
		base := time.Duration(1<<k) * time.Microsecond
		for _, d := range []time.Duration{base - time.Nanosecond, base, base + time.Nanosecond, base + base/2, 2*base - time.Nanosecond} {
			if d < time.Microsecond {
				continue
			}
			want := float64(uint64(1) << bits.Len64(uint64(d/time.Microsecond)))
			var h Hist
			h.Observe(d)
			if s := h.Snapshot("d"); s.P50 != want || s.P99 != want {
				t.Fatalf("%v: p50 %g p99 %g, want %g", d, s.P50, s.P99, want)
			}
		}
	}
}
