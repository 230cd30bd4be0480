package trace

import (
	"context"
	"testing"
)

// BenchmarkSpanDisabled measures the disabled fast path: one atomic
// load + nil check per Start, nil-receiver no-ops for everything else.
// This is the "measurably free" half of the tracing-overhead gate.
func BenchmarkSpanDisabled(b *testing.B) {
	Disable()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench.unit")
		sp.SetInt("i", int64(i))
		sp.End()
	}
}

// BenchmarkSpanEnabled measures the armed cost of a full
// start/annotate/end cycle into the collector + histogram: with a small
// cap, unbounded, at DefaultRetention pre-filled past the cap, so that
// every finished span evicts the oldest one, and from GOMAXPROCS
// goroutines at once into the small cap, where they contend for the
// tracer's lock.
func BenchmarkSpanEnabled(b *testing.B) {
	for _, c := range []struct {
		name           string
		limit, prefill int
	}{
		{"limit=1024", 1024, 0},
		{"unbounded", 0, 0},
		{"full", DefaultRetention, 2 * DefaultRetention},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr := New(c.limit)
			ctx := context.Background()
			for i := 0; i < c.prefill; i++ {
				_, sp := tr.StartOn(ctx, "bench.fill")
				sp.End()
			}
			Enable(tr)
			defer Disable()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, sp := Start(ctx, "bench.unit")
				sp.SetInt("i", int64(i))
				sp.End()
			}
		})
	}
	b.Run("parallel", func(b *testing.B) {
		Enable(New(1024))
		defer Disable()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			ctx := context.Background()
			for i := int64(0); pb.Next(); i++ {
				_, sp := Start(ctx, "bench.unit")
				sp.SetInt("i", i)
				sp.End()
			}
		})
	})
}
