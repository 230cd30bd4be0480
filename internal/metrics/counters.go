// Package metrics is the instrumentation side of the paper's METRICS
// system (Sec. 4, Fig. 11, refs [9][28][43]) turned on the
// reproduction's own infrastructure: a registry of named counters, the
// METRICS server (live introspection
// endpoints, with the warehouse API mounted on it), and the campaign
// front door. The design records and the data miner of the Fig. 11 loop
// are internal/warehouse.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counters is a registry of named monotonic counters and gauges — the
// operational side of the METRICS idea applied to the reproduction's own
// infrastructure (campaign cache hits, pool contention, ...), as opposed
// to the per-stage design records the warehouse holds. It is safe for
// concurrent use; counter increments are a single atomic add.
//
// Naming scheme: `subsystem.noun.verb` (or `subsystem.noun.noun` for
// gauges) — e.g. campaign.cache.hit, campaign.point.retried,
// journal.append.ok, sched.queue.depth — so WritePrefix("campaign.")
// captures everything campaign-related and dashboards group by the
// first two segments. New counters must follow it.
type Counters struct {
	mu sync.RWMutex
	m  map[string]*atomic.Int64
}

// NewCounters creates an empty registry.
func NewCounters() *Counters {
	return &Counters{m: map[string]*atomic.Int64{}}
}

// Counter returns the named counter, registering it on first use.
func (c *Counters) Counter(name string) *atomic.Int64 {
	c.mu.RLock()
	v, ok := c.m[name]
	c.mu.RUnlock()
	if ok {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok = c.m[name]; !ok {
		v = &atomic.Int64{}
		c.m[name] = v
	}
	return v
}

// Add increments the named counter.
func (c *Counters) Add(name string, delta int64) { c.Counter(name).Add(delta) }

// Set stores an absolute value — gauge semantics, for values that are
// levels rather than event counts (queue depth, pool peaks).
func (c *Counters) Set(name string, value int64) { c.Counter(name).Store(value) }

// Get returns the current value of a counter (0 if never touched).
func (c *Counters) Get(name string) int64 {
	c.mu.RLock()
	v, ok := c.m[name]
	c.mu.RUnlock()
	if !ok {
		return 0
	}
	return v.Load()
}

// Snapshot returns all counters as a name->value map.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v.Load()
	}
	return out
}

// Write renders the counters in sorted order, one "name value" per line.
func (c *Counters) Write(w io.Writer) {
	c.WritePrefix(w, "")
}

// WritePrefix renders the counters whose names start with prefix, in
// sorted order, one "name value" per line — how a CLI reports one
// subsystem's counters (say, campaign.journal.*) without dumping the
// whole registry. An empty prefix renders everything.
func (c *Counters) WritePrefix(w io.Writer, prefix string) {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		if strings.HasPrefix(k, prefix) {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %d\n", k, snap[k])
	}
}

// Default is the process-wide registry. Infrastructure that has no
// natural place to thread an explicit registry through (the campaign
// memo cache, the license pool) reports here, and the METRICS server
// exposes it on /stats.
var Default = NewCounters()

// Add increments a counter on the Default registry.
func Add(name string, delta int64) { Default.Add(name, delta) }

// Set stores a gauge value on the Default registry.
func Set(name string, value int64) { Default.Set(name, value) }

// Get reads a counter from the Default registry.
func Get(name string) int64 { return Default.Get(name) }
