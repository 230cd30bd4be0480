package journal

import "sync"

// Item is one keyed value offered to a Keyed log: Payload is the record
// that makes it durable, and must decode back to (Key, Value).
type Item[V any] struct {
	Key     string
	Value   V
	Payload []byte
}

// KeyedStats reports what OpenKeyed replayed.
type KeyedStats struct {
	Log       RecoveryStats // what the log under it recovered (zero when memory-only)
	Recovered int           // distinct keys replayed
	Corrupt   int           // CRC-valid records the decoder refused
	Duplicate int           // decodable records whose key had already replayed
}

// Keyed is the one durable first-wins keyed store: a Log replayed into a
// map at open and appended to on every new key. The campaign journal,
// the dist result store, the METRICS warehouse and the corpus journal
// are typed views of it, so the policy below is written once.
//
//   - The first value under a key wins, on replay and on put; the check
//     and the append share one lock, so a key reaches the log once however
//     many writers race on it.
//   - A payload is appended (and synced, per the log's policy) before its
//     value is visible to Get.
//   - An append failure — a put after Close included, which is ErrClosed —
//     degrades durability, never liveness: the value still serves from
//     memory, the put returns the error, and the first one stays in Err.
//   - A record the decoder refuses costs its key one recompute: it is
//     counted and skipped, never fatal.
//
// All methods are safe for concurrent use.
type Keyed[V any] struct {
	mu    sync.RWMutex
	log   *Log // nil = memory-only
	index map[string]int
	vals  []V // insertion order
	stats KeyedStats
	err   error // sticky: the first append failure
}

// OpenKeyed opens the log in dir (recovering torn tails as Open does) and
// replays it through decode. dir == "" is memory-only: the same store
// with nothing under it.
func OpenKeyed[V any](dir string, opts Options, decode func(payload []byte) (key string, v V, err error)) (*Keyed[V], error) {
	k := &Keyed[V]{index: map[string]int{}}
	if dir == "" {
		return k, nil
	}
	log, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	k.log = log
	k.stats.Log = log.Stats()
	for _, rec := range log.Records() {
		key, v, err := decode(rec)
		switch {
		case err != nil:
			k.stats.Corrupt++
		case k.insert(key, v):
			k.stats.Recovered++
		default:
			k.stats.Duplicate++
		}
	}
	log.records = nil // replayed: the values are what the store keeps
	return k, nil
}

// insert adds v under key unless the key is taken. Caller holds k.mu.
func (k *Keyed[V]) insert(key string, v V) bool {
	if _, dup := k.index[key]; dup {
		return false
	}
	k.index[key] = len(k.vals)
	k.vals = append(k.vals, v)
	return true
}

// Get returns the value under key.
func (k *Keyed[V]) Get(key string) (v V, ok bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	i, ok := k.index[key]
	if ok {
		v = k.vals[i]
	}
	return v, ok
}

// Put stores one value: PutBatch of one. stored is false for a key that
// is already taken (nothing is appended).
func (k *Keyed[V]) Put(key string, v V, payload []byte) (stored bool, err error) {
	added, err := k.PutBatch([]Item[V]{{Key: key, Value: v, Payload: payload}})
	return len(added) == 1, err
}

// PutBatch stores the items whose keys are new — to the store and within
// the batch — under one group commit (one Log.AppendBatch, so one sync),
// and returns them. A non-nil error means the new items are served from
// memory but are not durable.
func (k *Keyed[V]) PutBatch(items []Item[V]) (added []Item[V], err error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	var payloads [][]byte
	for _, it := range items {
		// The write lock is held until the append returns, so inserting
		// first is still durable-before-visible.
		if k.insert(it.Key, it.Value) {
			added = append(added, it)
			payloads = append(payloads, it.Payload)
		}
	}
	if k.log == nil || len(added) == 0 {
		return added, nil
	}
	if err = k.log.AppendBatch(payloads); err != nil && k.err == nil {
		k.err = err
	}
	return added, err
}

// Len returns the number of keys held.
func (k *Keyed[V]) Len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.vals)
}

// Values returns every value in insertion order (replayed ones first).
// The slice is a snapshot of an append-only sequence: later puts do not
// show in it, and callers must not write to it.
func (k *Keyed[V]) Values() []V {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.vals[:len(k.vals):len(k.vals)]
}

// Stats returns what OpenKeyed replayed.
func (k *Keyed[V]) Stats() KeyedStats { return k.stats }

// Err returns the first append failure (nil = everything put is durable).
func (k *Keyed[V]) Err() error {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.err
}

// Close syncs and closes the log. It waits for puts in flight; a put
// that loses the race is served from memory and reported by Err. Closing
// twice, or closing a memory-only store, is a no-op.
func (k *Keyed[V]) Close() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.log == nil {
		return nil
	}
	return k.log.Close()
}
