package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var histSeq atomic.Int64

// freshHist returns the name of a DefaultHists histogram no earlier
// observation has fed: the registry is process-wide, and -count=N reruns
// a test in the same process.
func freshHist(base string) string { return fmt.Sprintf("%s.%d", base, histSeq.Add(1)) }

func TestValueHistBasics(t *testing.T) {
	name := freshHist("test.valuehist.basics")
	for _, v := range []float64{0, 0.5, 1, 2, 100} {
		Observe(name, v)
	}
	s := DefaultHists.Hist(name).Snapshot(name)
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
	name := freshHist("test.valuehist.clamps")
	Observe(name, -5)
	Observe(name, math.NaN())
	Observe(name, 1e300)
	s := DefaultHists.Hist(name).Snapshot(name)
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
	name := freshHist("test.valuehist.concurrent")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1020; i++ { // 60 whole cycles of 0..16
				Observe(name, float64(i%17))
			}
		}()
	}
	wg.Wait()
	s := DefaultHists.Hist(name).Snapshot(name)
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

// TestHistsRegistryWrite: Observe feeds the process-wide value
// histograms, which render one line per name, sorted.
func TestHistsRegistryWrite(t *testing.T) {
	synth := DefaultHists.Hist("test.tolerr.synth")
	before := synth.Snapshot("").Count
	Observe("test.tolerr.synth", 0.2)
	Observe("test.tolerr.synth", 3)
	Observe("test.tolerr.place", 1)
	if n := synth.Snapshot("").Count - before; n != 2 {
		t.Fatalf("synth histogram took %d observations, want 2", n)
	}
	var b strings.Builder
	DefaultHists.Write(&b)
	out := b.String()
	place, syn := strings.Index(out, "test.tolerr.place count="), strings.Index(out, "test.tolerr.synth count=")
	if place < 0 || syn < 0 || place > syn {
		t.Errorf("histogram lines missing or unsorted:\n%s", out)
	}
}
