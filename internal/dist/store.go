package dist

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// Store is the network tier of the campaign memo cache: a journal.Keyed
// of encoded campaign.Entry records under their content keys. Every
// accepted put is in the WAL before it is visible, the first put under a
// key wins, and Open replays the log so a restarted store serves
// everything it ever acknowledged.
//
// The store does not decide who computes a point — the coordinator's
// queue does, one node at a time. Two puts of one key happen only on
// failure paths (a point moved off a node that computed it but could not
// answer); determinism makes them carry the same entry (not always the
// same bytes: gob writes a map in iteration order), and the first wins.
type Store struct {
	entries *journal.Keyed[[]byte]
}

// OpenStore opens the result store, replaying the WAL in dir when dir
// is non-empty ("" = memory-only, for tests and ephemeral campaigns).
// Records that fail to decode are skipped and counted, never fatal —
// one corrupt entry costs one recompute, not the store.
func OpenStore(dir string, opts journal.Options) (*Store, error) {
	entries, err := journal.OpenKeyed(dir, opts, func(rec []byte) (string, []byte, error) {
		e, err := campaign.DecodeEntry(rec)
		return e.Key, rec, err
	})
	if err != nil {
		return nil, fmt.Errorf("dist: open store wal: %w", err)
	}
	st := entries.Stats()
	if st.Corrupt > 0 {
		metrics.Add("dist.store.corrupt", int64(st.Corrupt))
	}
	metrics.Add("dist.store.recovered", int64(st.Recovered))
	return &Store{entries: entries}, nil
}

// Get returns the encoded entry for a key, if the store holds it.
func (s *Store) Get(key string) ([]byte, bool) {
	data, ok := s.entries.Get(key)
	if ok {
		metrics.Add("dist.store.hit", 1)
	} else {
		metrics.Add("dist.store.miss", 1)
	}
	return data, ok
}

// Put stores one encoded entry: the first write for a key wins (a
// duplicate is acknowledged but dropped — determinism guarantees it
// carried the same entry), and the WAL append happens before the entry
// becomes visible. The payload must decode as a campaign.Entry whose key
// matches; garbage is rejected so one sick node cannot poison every
// node's cache. A WAL failure is not an error here: the entry still
// serves from memory, and Err reports the degraded durability.
func (s *Store) Put(key string, data []byte) (stored bool, err error) {
	e, err := campaign.DecodeEntry(data)
	if err != nil {
		metrics.Add("dist.store.rejected", 1)
		return false, err
	}
	if e.Key != key {
		metrics.Add("dist.store.rejected", 1)
		return false, fmt.Errorf("dist: put key %q does not match entry key %q", key, e.Key)
	}
	cp := append([]byte(nil), data...)
	stored, werr := s.entries.Put(key, cp, cp)
	switch {
	case werr != nil:
		metrics.Add("dist.store.wal_err", 1)
	case !stored:
		metrics.Add("dist.store.duplicate", 1)
		return false, nil
	}
	metrics.Add("dist.store.stored", 1)
	return true, nil
}

// Len returns the number of stored entries.
func (s *Store) Len() int { return s.entries.Len() }

// WALStats reports what WAL recovery found at open (zero value for a
// memory-only store).
func (s *Store) WALStats() journal.RecoveryStats { return s.entries.Stats().Log }

// Err reports the first WAL append failure (nil = fully durable).
func (s *Store) Err() error { return s.entries.Err() }

// StoreStats is the store's size now, beside what WAL recovery found at
// open.
type StoreStats struct {
	Entries   int `json:"entries"`
	Recovered int `json:"recovered"`
	Corrupt   int `json:"corrupt"`
	Duplicate int `json:"duplicate"`
}

// Stats snapshots the store.
func (s *Store) Stats() StoreStats {
	st := s.entries.Stats()
	return StoreStats{
		Entries:   s.entries.Len(),
		Recovered: st.Recovered, Corrupt: st.Corrupt, Duplicate: st.Duplicate,
	}
}

// Close syncs and closes the WAL (memory-only stores close trivially).
func (s *Store) Close() error { return s.entries.Close() }
