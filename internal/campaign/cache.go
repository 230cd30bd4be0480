package campaign

import (
	"context"
	"errors"
	"sync"

	"repro/internal/metrics"
)

// Tier is a second memo tier behind the in-process cache: the network
// result store shared by every node of a distributed campaign (see
// internal/dist), or the durable Journal of a local one. The cache
// consults it after an L1 miss and writes freshly computed entries
// through to it before publishing them to coalesced waiters, so by the
// time any caller sees a result the tier already holds it — which is
// also the whole crash-safety argument of a journaled campaign.
//
// Load returns the entry for a key if the tier has it; Store offers a
// computed entry to the tier (best-effort: the tier may drop it, e.g.
// on a network fault — the computation itself is already safe in L1).
// Implementations must be safe for concurrent use.
type Tier interface {
	Load(key string) (Entry, bool)
	Store(e Entry)
}

// Cache memoizes flow results by content key: hash(design fingerprint,
// Options) -> *flow.Result. Identical option points recur constantly
// across the paper's studies (probe runs, shared arms, repeated seeds
// across figure regenerations), and a flow run is deterministic in its
// inputs, so recomputing one is pure waste — the Simopt observation that
// caching CAD-flow pass results is the biggest TAT lever.
//
// The cache is one map behind one lock, and it coalesces concurrent
// requests for the same key into a single computation. Cached results
// are shared: callers must treat them — including Result.Netlist — as
// immutable. A result's netlist storage may be shared beyond its key too:
// a run that adopts its seed's prefix returns that seed's netlist storage
// under a header of its own (flow.Prefixes), so a finished run's netlist
// storage is never written. The hit/miss/eviction counts live behind the
// same lock, so a Stats snapshot is coherent (no torn reads between
// related counters); they are mirrored into the process-wide metrics
// registry (campaign.cache.* counters, visible on the METRICS server's
// /stats endpoint).
type Cache struct {
	capacity int // at most this many entries; <= 0 is unbounded
	tier     Tier

	// mu guards the maps, the eviction order and every counter as one
	// unit: a Stats snapshot taken between a miss increment and the
	// matching insert still satisfies the counters' mutual invariants
	// (hits+misses = lookups completed, coalesced <= hits).
	mu         sync.RWMutex
	entries    map[string]*Entry
	inflight   map[string]*inflightCall
	order      []string // insertion order, for FIFO eviction; kept only when bounded
	hits       int64
	misses     int64
	coalesced  int64
	evictions  int64
	tierHits   int64
	tierStores int64
}

// inflightCall is a compute the waiters on its key coalesce on; ent is
// set, as L1 will hold it, before done closes.
type inflightCall struct {
	done chan struct{}
	ent  *Entry
	err  error
}

// NewCache creates a memo cache holding up to capacity results
// (capacity <= 0 means unbounded). Eviction is FIFO: flow campaigns sweep
// forward through option space, so the oldest points are the least likely
// to recur.
func NewCache(capacity int) *Cache {
	return &Cache{capacity: capacity, entries: map[string]*Entry{}, inflight: map[string]*inflightCall{}}
}

// SetTier attaches a shared second tier consulted on L1 misses and
// written through on computes. Call before the cache is in use (the
// field is not synchronized against concurrent lookups).
func (c *Cache) SetTier(t Tier) { c.tier = t }

// countHits counts n hits, all coalesced or none. do counts each lookup;
// the engine's revisit pass probes without counting and adds its hits
// here once, when it ends.
func (c *Cache) countHits(n int64, coalesced bool) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.hits += n
	if coalesced {
		c.coalesced += n
	}
	c.mu.Unlock()
	metrics.Add("campaign.cache.hit", n)
	if coalesced {
		metrics.Add("campaign.cache.coalesced", n)
	}
}

// probe is the revisit pass's L1 probe: the entry under key, if L1 holds
// it. It counts nothing; the pass counts its hits once per pass.
func (c *Cache) probe(key string) (*Entry, bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	return e, ok
}

// do returns the entry under key, computing and storing it on a miss.
// Concurrent calls with the same key coalesce: one computes, the rest
// wait and share its entry (counted as hits, plus a coalesced marker).
// With a Tier attached, an L1 miss first asks the tier — a tier hit fills
// L1 and returns hit=true without computing — and a fresh compute is
// written through to the tier whole before the call returns. A hit of any
// kind hands back the entry's Res and Steps, the records its compute
// emitted, for the caller to replay. A compute error is propagated to the
// caller and to every coalesced waiter, and nothing is cached — a failed
// or aborted run must never be served as a memoized result. A cancelled
// compute is the exception: its waiters were not cancelled, so they look
// again and one of them computes.
func (c *Cache) do(key string, compute func() (Entry, error)) (ent Entry, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.hits++
			c.mu.Unlock()
			metrics.Add("campaign.cache.hit", 1)
			return *e, true, nil
		}
		call, ok := c.inflight[key]
		if !ok {
			break // c.mu still held: this caller computes
		}
		c.mu.Unlock()
		<-call.done
		switch {
		case call.err == nil:
			c.countHits(1, true)
			return *call.ent, true, nil
		case !errors.Is(call.err, context.Canceled) && !errors.Is(call.err, context.DeadlineExceeded):
			// The computing caller failed; surface its error rather
			// than treating the point as memoized-failed.
			return Entry{}, false, call.err
		}
		// The computing caller was cancelled: its context, not this
		// one's. Its call left inflight before done closed, so look
		// again — and compute, unless someone else already is.
	}
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	if c.tier != nil {
		if ent, hit = c.tier.Load(key); hit {
			// Served by the tier: this is a hit for this caller too —
			// nothing was computed, so nothing is written back.
			c.mu.Lock()
			c.hits++
			c.tierHits++
			c.mu.Unlock()
			metrics.Add("campaign.cache.hit", 1)
			metrics.Add("campaign.cache.tier_hit", 1)
		}
	}
	if !hit {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		metrics.Add("campaign.cache.miss", 1)
		ent, call.err = compute()
		ent.Key = key
		if call.err == nil && c.tier != nil {
			// Write through before publishing: when any caller of this key
			// returns, the tier already holds the entry — the contract a
			// distributed coordinator relies on when it fetches results by
			// key after a worker acknowledges a point, and a journaled
			// campaign when it is killed the instant a point is visible.
			c.tier.Store(ent)
			c.mu.Lock()
			c.tierStores++
			c.mu.Unlock()
			metrics.Add("campaign.cache.tier_store", 1)
		}
	}
	// Fill L1 and resolve the waiters with a copy, so ent itself stays
	// off the heap on the hit paths above.
	l1 := ent
	call.ent = &l1
	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.insert(key, call.ent)
	}
	c.mu.Unlock()
	close(call.done)
	return ent, hit, call.err
}

// insert stores the entry of a key L1 does not hold — only the caller
// that computes a key inserts it — evicting the oldest entry of a full
// bounded cache. Caller holds c.mu.
func (c *Cache) insert(key string, e *Entry) {
	if c.capacity > 0 {
		if len(c.order) == c.capacity {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
			c.evictions++
			metrics.Add("campaign.cache.evicted", 1)
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = e
}

// CacheStats is a point-in-time snapshot, taken under the cache's one
// lock, so its invariants hold in every snapshot: Coalesced <= Hits,
// TierHits <= Hits, Hits+Misses is the number of completed lookups, and
// Entries is what L1 held at that instant.
type CacheStats struct {
	Hits       int64
	Misses     int64
	Coalesced  int64 // subset of Hits served by waiting on an in-flight compute
	Evictions  int64
	TierHits   int64 // subset of Hits served by the shared tier
	TierStores int64 // computes written through to the shared tier
	Entries    int
}

// Stats snapshots the cache coherently.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return CacheStats{
		Hits:       c.hits,
		Misses:     c.misses,
		Coalesced:  c.coalesced,
		Evictions:  c.evictions,
		TierHits:   c.tierHits,
		TierStores: c.tierStores,
		Entries:    len(c.entries),
	}
}
