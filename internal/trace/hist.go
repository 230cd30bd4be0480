package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of a histogram: bucket k holds values
// in [2^(k-21), 2^(k-20)) — bucket 0 also everything below 2^-20, zero
// included, and the last bucket everything from 2^42 up — so 64
// log-spaced buckets span ~1e-6 to ~4e12: span latencies in µs from
// sub-microsecond to ~50 days, and percentage-scale values (predictor
// tolerance errors, warehouse scalars) alike.
const histBuckets = 64

// Hist is one log-bucketed histogram of non-negative float64 values.
// Observations are a few atomic operations; snapshots are lock-free
// reads, so a /debug/hist scrape never stalls the campaign writing to it.
type Hist struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	max    atomic.Uint64 // float64 bits
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	switch {
	case !(v >= 0x1p-20): // NaN included
		return 0
	case v >= 0x1p42:
		return histBuckets - 1
	}
	_, exp := math.Frexp(v) // v in [2^(exp-1), 2^exp)
	return exp + 20
}

// bucketUpper returns the exclusive upper bound of bucket b.
func bucketUpper(b int) float64 { return math.Ldexp(1, b-20) }

// Add records one value. Negative and NaN values count as zero: the
// histograms hold magnitudes (latencies, errors), not signed values.
func (h *Hist) Add(v float64) {
	if !(v > 0) {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Observe records one duration in microseconds. A duration of at least
// 1 µs lands in the bucket [2^(j-1), 2^j) µs that holds its whole
// microseconds.
func (h *Hist) Observe(d time.Duration) { h.Add(float64(d) / 1e3) }

// HistSnapshot is a point-in-time summary of one histogram, in the unit
// of the values it was fed (µs for span latencies). Quantiles are bucket
// upper bounds (a conservative estimate: the true quantile is at most
// the reported value, within one power of two).
type HistSnapshot struct {
	Name  string
	Count int64
	Mean  float64
	P50   float64
	P90   float64
	P99   float64
	Max   float64
	// Buckets holds the non-empty buckets as (upper bound, count) pairs,
	// for callers that want the full shape.
	Buckets []HistBucket
}

// HistBucket is one non-empty histogram bucket.
type HistBucket struct {
	Upper float64
	Count int64
}

// Snapshot summarizes the histogram. Writers may race with the reads —
// each bucket is read atomically, so counts are never torn, merely up
// to one observation apart between buckets.
func (h *Hist) Snapshot(name string) HistSnapshot {
	s := HistSnapshot{Name: name}
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		s.Count += counts[i]
	}
	if s.Count == 0 {
		return s
	}
	s.Mean = math.Float64frombits(h.sum.Load()) / float64(s.Count)
	s.Max = math.Float64frombits(h.max.Load())
	quantile := func(q float64) float64 {
		target := int64(q*float64(s.Count-1)) + 1
		var cum int64
		for i, c := range counts {
			cum += c
			if cum >= target {
				return bucketUpper(i)
			}
		}
		return bucketUpper(histBuckets - 1)
	}
	s.P50 = quantile(0.50)
	s.P90 = quantile(0.90)
	s.P99 = quantile(0.99)
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Upper: bucketUpper(i), Count: c})
		}
	}
	return s
}

// HistSet is a registry of named histograms, one per span name, with
// the same read-mostly locking idiom as metrics.Counters.
type HistSet struct {
	mu sync.RWMutex
	m  map[string]*Hist
}

// NewHistSet creates an empty registry.
func NewHistSet() *HistSet { return &HistSet{m: map[string]*Hist{}} }

// Hist returns the named histogram, registering it on first use.
func (s *HistSet) Hist(name string) *Hist {
	s.mu.RLock()
	h, ok := s.m[name]
	s.mu.RUnlock()
	if ok {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok = s.m[name]; !ok {
		h = &Hist{}
		s.m[name] = h
	}
	return h
}

// Observe records one duration into the named histogram.
func (s *HistSet) Observe(name string, d time.Duration) { s.Hist(name).Observe(d) }

// Snapshots summarizes every histogram, sorted by name.
func (s *HistSet) Snapshots() []HistSnapshot {
	s.mu.RLock()
	names := make([]string, 0, len(s.m))
	for k := range s.m {
		names = append(names, k)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	out := make([]HistSnapshot, 0, len(names))
	for _, n := range names {
		out = append(out, s.Hist(n).Snapshot(n))
	}
	return out
}

// Write renders one "name count=N mean=X p50=X p90=X p99=X max=X" line
// per histogram, sorted by name — the /debug/hist and /metrics
// exposition format.
func (s *HistSet) Write(w io.Writer) {
	for _, snap := range s.Snapshots() {
		fmt.Fprintf(w, "%s count=%d mean=%.6g p50=%g p90=%g p99=%g max=%.6g\n",
			snap.Name, snap.Count, snap.Mean, snap.P50, snap.P90, snap.P99, snap.Max)
	}
}
