package campaign

import (
	"context"
	"errors"
	"sync"

	"repro/internal/flow"
	"repro/internal/metrics"
)

// shardCount is a power of two so shard selection is a mask.
const shardCount = 32

// Tier is a second memo tier behind the in-process cache: the network
// result store shared by every node of a distributed campaign (see
// internal/dist), or the durable Journal of a local one. DoRecorded
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
// The cache is sharded (mutex per shard) and coalesces concurrent
// requests for the same key into a single computation. Cached results
// are shared: callers must treat them — including Result.Netlist — as
// immutable. Hit/miss/eviction counts live behind one counter mutex so
// Stats and HitRate always see a coherent snapshot (no torn reads
// between related counters); they are mirrored into the process-wide
// metrics registry (campaign.cache.* counters, visible on the METRICS
// server's /stats endpoint).
type Cache struct {
	capPerShard int
	shards      [shardCount]cacheShard
	tier        Tier

	// cmu guards every counter below as one unit: a Stats snapshot taken
	// between a miss increment and the matching insert must still satisfy
	// the counters' mutual invariants (hits+misses = lookups completed,
	// coalesced <= hits). Counter updates are two orders of magnitude
	// cheaper than the flow runs they count, so one mutex is free.
	cmu        sync.Mutex
	hits       int64
	misses     int64
	coalesced  int64
	evictions  int64
	tierHits   int64
	tierStores int64
}

type cacheShard struct {
	mu       sync.RWMutex
	entries  map[string]*Entry
	order    []string // insertion order, for FIFO eviction
	inflight map[string]*inflightCall
}

// inflightCall is a compute the waiters on its key coalesce on; ent is
// set, as L1 will hold it, before done closes.
type inflightCall struct {
	done chan struct{}
	ent  *Entry
	err  error
}

// NewCache creates a memo cache holding up to capacity results
// (capacity <= 0 means unbounded). Eviction is FIFO per shard: flow
// campaigns sweep forward through option space, so the oldest points are
// the least likely to recur.
func NewCache(capacity int) *Cache {
	c := &Cache{}
	if capacity > 0 {
		c.capPerShard = (capacity + shardCount - 1) / shardCount
		if c.capPerShard < 1 {
			c.capPerShard = 1
		}
	}
	for i := range c.shards {
		c.shards[i].entries = map[string]*Entry{}
		c.shards[i].inflight = map[string]*inflightCall{}
	}
	return c
}

// SetTier attaches a shared second tier consulted on L1 misses and
// written through on computes. Call before the cache is in use (the
// field is not synchronized against concurrent lookups).
func (c *Cache) SetTier(t Tier) { c.tier = t }

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[shardHash(key)&(shardCount-1)]
}

// shardHash folds a key eight bytes at a time (the tail zero-padded, the
// length mixed in) and finishes with a multiply-xorshift, so every key
// byte reaches the low bits a shard index is taken from. It is
// deterministic across processes, unlike hash/maphash, so a bounded
// cache evicts — and counts evictions — the same way in every process.
func shardHash(key string) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(key)) * m
	for len(key) >= 8 {
		h = (h ^ le64(key)) * m
		h ^= h >> 29
		key = key[8:]
	}
	var tail uint64
	for i := 0; i < len(key); i++ {
		tail |= uint64(key[i]) << (8 * i)
	}
	h = (h ^ tail) * m
	h ^= h >> 32
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// le64 reads key's first eight bytes as a little-endian word; the
// compiler merges the byte loads into one.
func le64(key string) uint64 {
	return uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
		uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
}

// count applies one coherent counter update.
func (c *Cache) count(f func(c *Cache)) {
	c.cmu.Lock()
	f(c)
	c.cmu.Unlock()
}

// countHits counts n hits, all coalesced or none. Get and do count each
// lookup; the engine's revisit pass probes without counting and adds its
// hits here once, when it ends.
func (c *Cache) countHits(n int64, coalesced bool) {
	if n == 0 {
		return
	}
	c.count(func(c *Cache) {
		c.hits += n
		if coalesced {
			c.coalesced += n
		}
	})
	metrics.Add("campaign.cache.hit", n)
	if coalesced {
		metrics.Add("campaign.cache.coalesced", n)
	}
}

// Get returns the cached result for a key, if present. Get reads the
// in-process tier only; the shared tier is consulted by DoRecorded,
// where a miss has a compute to coalesce against.
func (c *Cache) Get(key string) (*flow.Result, bool) {
	if e, ok := c.lookup(key); ok {
		return e.Res, true
	}
	c.count(func(c *Cache) { c.misses++ })
	metrics.Add("campaign.cache.miss", 1)
	return nil, false
}

// lookup is Get's and do's L1 probe: the entry under key if L1 holds it,
// counted as a hit. Absence counts nothing — whether it is a miss is the
// caller's to find out.
func (c *Cache) lookup(key string) (*Entry, bool) {
	e, ok := c.probe(key)
	if ok {
		c.countHits(1, false)
	}
	return e, ok
}

// probe is the one L1 probe, shared by lookup and the engine's revisit
// pass, which counts its hits once per pass: it counts nothing.
func (c *Cache) probe(key string) (*Entry, bool) {
	s := c.shard(key)
	s.mu.RLock()
	e, ok := s.entries[key]
	s.mu.RUnlock()
	return e, ok
}

// Do returns the cached result for key, computing and storing it on a
// miss. Concurrent Do calls with the same key coalesce: one computes,
// the rest wait and share the result (counted as hits, plus a coalesced
// marker).
func (c *Cache) Do(key string, compute func() *flow.Result) *flow.Result {
	res, _, _, _ := c.DoRecorded(key, func() (*flow.Result, []flow.StepRecord, error) { //nolint:errcheck // compute never errors
		return compute(), nil, nil
	})
	return res
}

// DoRecorded is Do with step-record capture, failure awareness and tier
// awareness: compute returns the result plus the step records it
// emitted, which are stored alongside the result and handed back on
// every future hit (hit=true) so callers can replay them to their
// Observer. With a Tier attached, an L1 miss first asks the tier —
// a tier hit fills L1 and returns hit=true without computing — and a
// fresh compute is written through to the tier before the call returns.
// A compute error is propagated to the caller and to every coalesced
// waiter, and nothing is cached — a failed or aborted run must never be
// served as a memoized result. A cancelled compute is the exception: its
// waiters were not cancelled, so they look again and one of them computes.
func (c *Cache) DoRecorded(key string, compute func() (*flow.Result, []flow.StepRecord, error)) (res *flow.Result, steps []flow.StepRecord, hit bool, err error) {
	e, hit, err := c.do(key, func() (Entry, error) {
		res, steps, err := compute()
		return Entry{Res: res, Steps: steps}, err
	})
	return e.Res, e.Steps, hit, err
}

// do is DoRecorded in the engine's currency, an Entry: what compute
// returns is written through to the tier whole, and a hit of any kind
// hands back the entry's Res and Steps.
func (c *Cache) do(key string, compute func() (Entry, error)) (ent Entry, hit bool, err error) {
	if e, ok := c.lookup(key); ok {
		return *e, true, nil
	}
	s := c.shard(key)
	for {
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			// Landed between the probe and the lock.
			s.mu.Unlock()
			c.countHits(1, false)
			return *e, true, nil
		}
		call, ok := s.inflight[key]
		if !ok {
			break // s.mu still held: this caller computes
		}
		s.mu.Unlock()
		<-call.done
		switch {
		case call.err == nil:
			c.countHits(1, true)
			return *call.ent, true, nil
		case !errors.Is(call.err, context.Canceled) && !errors.Is(call.err, context.DeadlineExceeded):
			// The computing caller failed; surface its error so the
			// waiter's own retry loop can re-attempt (and coalesce
			// again) rather than treating the point as memoized-failed.
			return Entry{}, false, call.err
		}
		// The computing caller was cancelled: its context, not this
		// one's. Its call left inflight before done closed, so look
		// again — and compute, unless someone else already is.
	}
	call := &inflightCall{done: make(chan struct{})}
	s.inflight[key] = call
	s.mu.Unlock()

	if c.tier != nil {
		if ent, hit = c.tier.Load(key); hit {
			// Served by the tier: this is a hit for this caller too —
			// nothing was computed, so nothing is written back.
			c.count(func(c *Cache) { c.hits++; c.tierHits++ })
			metrics.Add("campaign.cache.hit", 1)
			metrics.Add("campaign.cache.tier_hit", 1)
		}
	}
	if !hit {
		c.count(func(c *Cache) { c.misses++ })
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
			c.count(func(c *Cache) { c.tierStores++ })
			metrics.Add("campaign.cache.tier_store", 1)
		}
	}
	// Fill L1 and resolve the waiters with a copy, so ent itself stays
	// off the heap on the hit paths above.
	l1 := ent
	call.ent = &l1
	s.mu.Lock()
	delete(s.inflight, key)
	if call.err == nil {
		c.insert(s, key, call.ent)
	}
	s.mu.Unlock()
	close(call.done)
	return ent, hit, call.err
}

// insert stores an entry, evicting the shard's oldest if at capacity.
// Caller holds s.mu.
func (c *Cache) insert(s *cacheShard, key string, e *Entry) {
	if _, exists := s.entries[key]; !exists {
		if c.capPerShard > 0 && len(s.order) >= c.capPerShard {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.entries, oldest)
			c.count(func(c *Cache) { c.evictions++ })
			metrics.Add("campaign.cache.evicted", 1)
		}
		s.order = append(s.order, key)
	}
	s.entries[key] = e
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// CacheStats is a point-in-time counter snapshot. The counters are
// captured atomically as a set, so their invariants hold in every
// snapshot: Coalesced <= Hits, TierHits <= Hits, and Hits+Misses is the
// number of completed lookups. Entries is gathered per shard afterwards
// and may lag the counters by in-flight inserts.
type CacheStats struct {
	Hits       int64
	Misses     int64
	Coalesced  int64 // subset of Hits served by waiting on an in-flight compute
	Evictions  int64
	TierHits   int64 // subset of Hits served by the shared tier
	TierStores int64 // computes written through to the shared tier
	Entries    int
}

// Stats snapshots the cache counters coherently.
func (c *Cache) Stats() CacheStats {
	c.cmu.Lock()
	st := CacheStats{
		Hits:       c.hits,
		Misses:     c.misses,
		Coalesced:  c.coalesced,
		Evictions:  c.evictions,
		TierHits:   c.tierHits,
		TierStores: c.tierStores,
	}
	c.cmu.Unlock()
	st.Entries = c.Len()
	return st
}

// HitRate returns hits / (hits + misses), or 0 before any lookup. The
// ratio is computed from one coherent snapshot, so it can never exceed
// 1 even mid-storm.
func (c *Cache) HitRate() float64 {
	c.cmu.Lock()
	h, m := c.hits, c.misses
	c.cmu.Unlock()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
