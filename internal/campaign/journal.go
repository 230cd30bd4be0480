// Campaign journaling: a write-ahead log of completed points, so a
// campaign killed at any moment — power cut, kill -9, scheduler
// preemption — resumes with every finished flow run intact instead of
// recomputing hours of tool time. This is the paper's "reducing time and
// effort" applied to the orchestration layer itself: the expensive
// artifact of a campaign is the set of completed runs, and the journal
// makes that set durable.
package campaign

import (
	"fmt"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Entry is one journaled point: the memo key that identifies it plus
// everything a resumed campaign needs to serve the point from cache —
// the flow result and the step records its compute emitted (so the
// Observer replay of a resumed point matches a memoized one exactly).
// The encoded form carries Res.Summary(), never the netlist and the
// other per-instance artifacts, so a decoded Res has Netlist == nil.
type Entry struct {
	Key   string
	Res   *flow.Result
	Steps []flow.StepRecord
}

// Journal is the campaign's durable memo tier: a journal.Keyed of gob
// entries that implements Tier. Attach it with Cache.SetTier and the
// campaign is crash-safe by the cache's own contract — a computed point
// is written through (appended and synced) before any caller sees it, and
// a point the journal holds is an L1 miss that hits the tier instead of
// computing, exactly as on a dist worker. Only keys the campaign asks for
// are ever loaded, so entries of another spec sharing the directory stay
// on disk and out of L1. The rest is journal.Keyed's policy: first entry
// under a key wins, an append failure (a Store after Close included)
// never fails the campaign and is surfaced by Err, a record that does not
// decode costs one recompute.
type Journal struct {
	k      *journal.Keyed[*journaled]
	served atomic.Int64 // recovered entries handed to the cache
}

// journaled is an entry the journal holds; counted says this process has
// served it — stored it live, or handed it out on a first Load, which
// ResumeStats counts as a replay.
type journaled struct {
	Entry
	counted atomic.Bool
}

// OpenJournal opens (or creates) the campaign journal in dir, recovering
// any torn tail left by a crash and decoding what survived. The
// journal.Options choose the fsync policy; the zero value is fully
// durable (fsync every append).
func OpenJournal(dir string, opts journal.Options) (*Journal, error) {
	sp := trace.Begin("campaign.journal.replay")
	k, err := journal.OpenKeyed(dir, opts, func(rec []byte) (string, *journaled, error) {
		e, err := DecodeEntry(rec)
		return e.Key, &journaled{Entry: e}, err
	})
	sp.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	if corrupt := k.Stats().Corrupt; corrupt > 0 {
		metrics.Add("campaign.journal.corrupt", int64(corrupt))
	}
	return &Journal{k: k}, nil
}

// Stats exposes the recovery statistics of the underlying log.
func (j *Journal) Stats() journal.RecoveryStats { return j.k.Stats().Log }

// Load implements Tier. The first Load of a recovered entry is a replay;
// a reload after an L1 eviction is not counted again.
func (j *Journal) Load(key string) (Entry, bool) {
	held, ok := j.k.Get(key)
	if !ok {
		return Entry{}, false
	}
	e := held.Entry
	if !held.counted.Swap(true) {
		j.served.Add(1)
		metrics.Add("campaign.journal.replayed", 1)
	}
	return e, true
}

// Store implements Tier: journal one computed point. The journal keeps
// the entry's Summary — what a replay of the record would hold — so it
// never pins a netlist.
func (j *Journal) Store(e Entry) {
	sp := trace.Begin("campaign.journal.append")
	if e.Res != nil {
		e.Res = e.Res.Summary()
	}
	held := &journaled{Entry: e}
	held.counted.Store(true)
	buf, err := EncodeEntry(e)
	stored := false
	if err == nil {
		stored, err = j.k.Put(e.Key, held, buf)
	}
	switch {
	case err != nil:
		// The entry is lost to durability; the campaign result is fine.
		metrics.Add("campaign.journal.append_err", 1)
		sp.EndWith(trace.Failed)
	case !stored:
		metrics.Add("campaign.journal.duplicate", 1)
		sp.EndWith(trace.CacheHit)
	default:
		metrics.Add("campaign.journal.appended", 1)
		sp.SetInt("bytes", int64(len(buf)))
		sp.End()
	}
}

// Err returns the first append failure, if any: the campaign's results
// are complete in memory but the journal may be missing points.
func (j *Journal) Err() error { return j.k.Err() }

// Close syncs and closes the underlying log; closing twice is safe.
func (j *Journal) Close() error { return j.k.Close() }

// ResumeStats reports what a rerun took out of the journal.
type ResumeStats struct {
	// Replayed is the number of recovered entries served to the cache:
	// the points that did not recompute.
	Replayed int
	// SkippedUnknown is the number of recovered entries no point asked
	// for — a changed campaign spec; they are preserved on disk.
	SkippedUnknown int
	// Corrupt is the number of records that failed to decode.
	Corrupt int
	// Duplicate is the number of decodable records whose key had already
	// replayed (e.g. the same point journaled by two pre-crash
	// processes); first entry wins.
	Duplicate int
}

// ResumeStats is the journal's accounting so far; read it after Run.
func (j *Journal) ResumeStats() ResumeStats {
	ks, served := j.k.Stats(), int(j.served.Load())
	return ResumeStats{
		Replayed: served, SkippedUnknown: ks.Recovered - served,
		Corrupt: ks.Corrupt, Duplicate: ks.Duplicate,
	}
}
