package dist

import (
	"fmt"
	"sync"

	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// Store is the network tier of the campaign memo cache: a journal.Keyed
// of encoded campaign.Entry records under their content keys (every
// accepted put is in the WAL before it is visible, the first put under a
// key wins, and Open replays the log so a restarted store serves
// everything it ever acknowledged), plus the claims below.
//
// The store also arbitrates the exactly-once compute contract via
// claims: a worker claims a key before computing it, the claim is
// cleared when the entry arrives (or when the coordinator declares the
// claiming node dead), and a second worker asking for a held key is
// told to wait instead of burning a license on a duplicate run.
// Determinism makes duplicate computes harmless — both produce the same
// entry (not always the same bytes: gob writes a map in iteration order)
// and the first put wins — so claims are purely a work-saving contract,
// never a correctness one.
type Store struct {
	entries *journal.Keyed[[]byte]

	mu     sync.Mutex // guards claims; held across a Put so a claim and its entry agree
	claims map[string]string
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
	return &Store{entries: entries, claims: map[string]string{}}, nil
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

// Put stores one encoded entry under the exactly-once contract: the
// first write for a key wins (a duplicate is acknowledged but dropped
// — determinism guarantees it carried the same entry), the WAL append
// happens before the entry becomes visible, and any claim on the key is
// cleared. The payload must decode as a campaign.Entry whose key
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
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.claims, key) // the compute completed, whoever held it
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

// ClaimState is the store's answer to a compute claim.
type ClaimState struct {
	// State is "granted" (caller should compute), "done" (entry exists,
	// fetch it) or "held" (another node is computing; wait or poll).
	State string `json:"state"`
	// Holder is the claiming node for "held".
	Holder string `json:"holder,omitempty"`
}

// Claim asks for the right to compute key. Re-claiming a key the same
// node already holds is granted again (idempotent retry).
func (s *Store) Claim(key, node string) ClaimState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries.Get(key); ok {
		return ClaimState{State: "done"}
	}
	if holder, ok := s.claims[key]; ok && holder != node {
		metrics.Add("dist.claim.held", 1)
		return ClaimState{State: "held", Holder: holder}
	}
	s.claims[key] = node
	metrics.Add("dist.claim.granted", 1)
	return ClaimState{State: "granted"}
}

// ReleaseClaim abandons node's claim on key (no-op if node does not
// hold it) — the orderly give-up path of a worker that claimed but
// cannot finish.
func (s *Store) ReleaseClaim(key, node string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.claims[key] == node {
		delete(s.claims, key)
		metrics.Add("dist.claim.released", 1)
	}
}

// ReleaseNode clears every claim node holds — the dead-node path: the
// coordinator declares a worker lost, frees its claims in one call, and
// only then reassigns its points, so the replacement workers are
// granted instead of told "held" by a ghost.
func (s *Store) ReleaseNode(node string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for key, holder := range s.claims {
		if holder == node {
			delete(s.claims, key)
			n++
		}
	}
	if n > 0 {
		metrics.Add("dist.claim.revoked", int64(n))
	}
	return n
}

// Len returns the number of stored entries.
func (s *Store) Len() int { return s.entries.Len() }

// WALStats reports what WAL recovery found at open (zero value for a
// memory-only store).
func (s *Store) WALStats() journal.RecoveryStats { return s.entries.Stats().Log }

// Err reports the first WAL append failure (nil = fully durable).
func (s *Store) Err() error { return s.entries.Err() }

// StoreStats is a coherent snapshot of the store.
type StoreStats struct {
	Entries   int `json:"entries"`
	Claims    int `json:"claims"`
	Recovered int `json:"recovered"`
	Corrupt   int `json:"corrupt"`
	Duplicate int `json:"duplicate"`
}

// Stats snapshots the store under one lock.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.entries.Stats()
	return StoreStats{
		Entries: s.entries.Len(), Claims: len(s.claims),
		Recovered: st.Recovered, Corrupt: st.Corrupt, Duplicate: st.Duplicate,
	}
}

// Close syncs and closes the WAL (memory-only stores close trivially).
func (s *Store) Close() error { return s.entries.Close() }
