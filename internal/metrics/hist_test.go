package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// The value histograms behind /metrics and /debug/hist are trace.Hist;
// these tests pin the bucket, snapshot and write behaviour those
// endpoints render, on a set of their own.

func TestValueHistBasics(t *testing.T) {
	h := trace.NewHistSet().Hist("basics")
	for _, v := range []float64{0, 0.5, 1, 2, 100} {
		h.Add(v)
	}
	s := h.Snapshot("basics")
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := 103.5 / 5; math.Abs(s.Mean-want) > 1e-9 {
		t.Errorf("mean = %g, want %g", s.Mean, want)
	}
	if s.Max != 100 {
		t.Errorf("max = %g, want 100", s.Max)
	}
	// Quantiles are bucket upper bounds: the median sample 1 lies in
	// bucket [1, 2), reported as its upper bound 2.
	if s.P50 != 2 {
		t.Errorf("p50 = %g, want 2", s.P50)
	}
	// A q-quantile is the sample of rank floor(q·(n-1))+1, trace's rule
	// for span latencies too: p99 of five samples is the fourth, 2,
	// reported as 4.
	if s.P99 != 4 {
		t.Errorf("p99 = %g, want 4", s.P99)
	}
}

// TestValueHistClampsPathologicalSamples: negative and NaN samples count
// as zero, in the lowest bucket (which ends at 2^-20), and a huge one
// lands in the top bucket (which ends at 2^43).
func TestValueHistClampsPathologicalSamples(t *testing.T) {
	h := trace.NewHistSet().Hist("clamps")
	h.Add(-5)
	h.Add(math.NaN())
	h.Add(1e300)
	s := h.Snapshot("clamps")
	if s.Count != 3 || s.Max != 1e300 {
		t.Fatalf("count %d max %g, want 3 and 1e300", s.Count, s.Max)
	}
	if s.P50 != math.Ldexp(1, -20) {
		t.Errorf("negative/NaN samples should land in the lowest bucket; p50 = %g", s.P50)
	}
	if top := s.Buckets[len(s.Buckets)-1]; top.Upper != math.Ldexp(1, 43) || top.Count != 1 {
		t.Errorf("top bucket %+v, want the 1e300 sample in the bucket ending at 2^43", top)
	}
}

// TestValueHistConcurrent: the CAS-accumulated sum and max lose no
// update under concurrent writers.
func TestValueHistConcurrent(t *testing.T) {
	h := trace.NewHistSet().Hist("concurrent")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1020; i++ { // 60 whole cycles of 0..16
				h.Add(float64(i % 17))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot("concurrent")
	if s.Count != 8160 {
		t.Fatalf("count = %d, want 8160", s.Count)
	}
	if s.Max != 16 {
		t.Errorf("max = %g, want 16", s.Max)
	}
	if s.Mean != 8 {
		t.Errorf("mean = %g, want 8 (CAS-accumulated sum lost updates?)", s.Mean)
	}
}

// TestHistsRegistryWrite: a histogram set hands out one histogram per
// name and renders one line per name, sorted.
func TestHistsRegistryWrite(t *testing.T) {
	hs := trace.NewHistSet()
	hs.Hist("test.stage.synth").Add(0.2)
	hs.Hist("test.stage.synth").Add(3)
	hs.Hist("test.stage.place").Add(1)
	if n := hs.Hist("test.stage.synth").Snapshot("").Count; n != 2 {
		t.Fatalf("synth histogram took %d observations, want 2", n)
	}
	var b strings.Builder
	hs.Write(&b)
	out := b.String()
	place, syn := strings.Index(out, "test.stage.place count="), strings.Index(out, "test.stage.synth count=")
	if place < 0 || syn < 0 || place > syn {
		t.Errorf("histogram lines missing or unsorted:\n%s", out)
	}
}
