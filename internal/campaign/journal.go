// Campaign journaling: a write-ahead log of completed points, so a
// campaign killed at any moment — power cut, kill -9, scheduler
// preemption — resumes with every finished flow run intact instead of
// recomputing hours of tool time. This is the paper's "reducing time and
// effort" applied to the orchestration layer itself: the expensive
// artifact of a campaign is the set of completed runs, and the journal
// makes that set durable.
package campaign

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"

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
	// Spec is the run's speculation outcome (nil if it did not
	// speculate). Replaying it at resume re-counts the same predictor
	// hit/miss counters the live run counted, so a resumed campaign's
	// accounting matches an uninterrupted one. Journals written before
	// speculation existed decode with Spec nil.
	Spec *flow.SpecStats
}

// EncodeEntry serializes an entry for the durable log or the network
// result store — the one wire format a journaled point has, so a store
// node and a local journal can exchange records byte-for-byte.
func EncodeEntry(e Entry) ([]byte, error) {
	if e.Res != nil {
		e.Res = e.Res.Summary()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, fmt.Errorf("campaign: encode entry: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeEntry parses an encoded entry, rejecting structurally empty
// records (no key or no result) the same way journal recovery does.
func DecodeEntry(data []byte) (Entry, error) {
	var e Entry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return Entry{}, fmt.Errorf("campaign: decode entry: %w", err)
	}
	if e.Key == "" || e.Res == nil {
		return Entry{}, fmt.Errorf("campaign: decode entry: missing key or result")
	}
	return e, nil
}

// Journal is the campaign-facing wrapper over the durable log: it
// serializes entries with gob, deduplicates appends by key (a point
// replayed from the journal is marked seen and never re-appended), and
// turns append failures into a sticky error surfaced via Err — the
// campaign itself keeps running, because losing durability must not
// lose the live computation too.
//
// Lifecycle contract: Close waits for any in-flight record to land
// (both hold the journal mutex), a record after Close is dropped but
// surfaced via Err — never silently lost — and closing twice is safe
// and returns the first close's outcome.
type Journal struct {
	log *journal.Log

	mu       sync.Mutex
	seen     map[string]struct{}
	err      error
	closed   bool
	closeErr error
}

// OpenJournal opens (or creates) the campaign journal in dir, recovering
// any torn tail left by a crash. The journal.Options choose the fsync
// policy; the zero value is fully durable (fsync every append).
func OpenJournal(dir string, opts journal.Options) (*Journal, error) {
	log, err := journal.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	return &Journal{log: log, seen: map[string]struct{}{}}, nil
}

// Entries decodes every recovered record. Records that fail to decode —
// a journal written by an incompatible build, or garbage that survived
// the CRC by astronomical luck — are skipped and counted, never fatal:
// a corrupt entry costs one recompute, not the campaign.
func (j *Journal) Entries() (entries []Entry, corrupt int) {
	for _, rec := range j.log.Records() {
		e, err := DecodeEntry(rec)
		if err != nil {
			corrupt++
			continue
		}
		entries = append(entries, e)
	}
	if corrupt > 0 {
		metrics.Add("campaign.journal.corrupt", int64(corrupt))
	}
	return entries, corrupt
}

// Stats exposes the recovery statistics of the underlying log.
func (j *Journal) Stats() journal.RecoveryStats { return j.log.Stats() }

// record journals one completed point. Appends are best-effort and
// deduplicated: a key already journaled (or replayed at resume) is
// skipped, and an append failure is remembered in Err but does not fail
// the campaign.
func (j *Journal) record(key string, res *flow.Result, steps []flow.StepRecord, spec *flow.SpecStats) {
	sp := trace.Begin("campaign.journal.append")
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		// The entry is lost to durability (the campaign result itself is
		// fine); a silent drop here would make Err lie about completeness.
		j.fail(fmt.Errorf("campaign: journal append after close: %w", journal.ErrClosed))
		sp.EndWith(trace.Failed)
		return
	}
	if _, dup := j.seen[key]; dup {
		metrics.Add("campaign.journal.duplicate", 1)
		sp.EndWith(trace.CacheHit)
		return
	}
	buf, err := EncodeEntry(Entry{Key: key, Res: res, Steps: steps, Spec: spec})
	if err != nil {
		j.fail(err)
		sp.EndWith(trace.Failed)
		return
	}
	if err := j.log.Append(buf); err != nil {
		j.fail(fmt.Errorf("campaign: journal append: %w", err))
		sp.EndWith(trace.Failed)
		return
	}
	j.seen[key] = struct{}{}
	metrics.Add("campaign.journal.appended", 1)
	sp.SetInt("bytes", int64(len(buf)))
	sp.End()
}

// markSeen suppresses future appends for a key that is already durable
// (it was replayed out of the journal at resume).
func (j *Journal) markSeen(key string) {
	j.mu.Lock()
	j.seen[key] = struct{}{}
	j.mu.Unlock()
}

// fail records the first append-path error. Caller holds j.mu.
func (j *Journal) fail(err error) {
	if j.err == nil {
		j.err = err
	}
	metrics.Add("campaign.journal.append_err", 1)
}

// Err returns the first append-path error, if any. A non-nil Err means
// the campaign's results are complete in memory but the journal may be
// missing points; callers that require durability should surface it.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Sync forces the journal to stable storage (meaningful under the
// SyncInterval/SyncNever policies).
func (j *Journal) Sync() error { return j.log.Sync() }

// Close syncs and closes the underlying log. It serializes with
// in-flight record calls (whichever holds the mutex first wins: an
// append that beat Close is durable, one that lost is dropped and
// surfaced via Err). Closing an already-closed journal is a no-op that
// returns the first Close's error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.closeErr
	}
	j.closed = true
	j.closeErr = j.log.Close()
	return j.closeErr
}

// ResumeStats reports what a resume replayed out of the journal.
type ResumeStats struct {
	// Replayed is the number of journal entries whose key matched a
	// requested point and was seeded into the cache.
	Replayed int
	// SkippedUnknown is the number of entries that matched no requested
	// point — a changed campaign spec; they are preserved on disk but
	// not served.
	SkippedUnknown int
	// Corrupt is the number of records that failed to decode.
	Corrupt int
	// Duplicate is the number of decodable entries whose key had already
	// been replayed (e.g. the same point journaled by two pre-crash
	// processes); first entry wins.
	Duplicate int
}

// Replay seeds the engine's cache with every journaled entry whose key
// matches one of pts, and marks those keys seen so the resumed campaign
// never re-appends them. Entries matching no requested point are
// skipped and counted (a resumed campaign may have a narrower spec than
// the one that crashed); corrupt records are skipped and counted. The
// engine must have been built with both Journal and Cache (Config.New
// auto-creates the cache when a journal is set).
func (e *Engine) Replay(pts []Point) (ResumeStats, error) {
	if e.journal == nil {
		return ResumeStats{}, fmt.Errorf("campaign: Replay: engine has no journal")
	}
	if e.cache == nil {
		return ResumeStats{}, fmt.Errorf("campaign: Replay: engine has no cache")
	}
	sp := trace.Begin("campaign.journal.replay")
	defer sp.End()
	known := make(map[string]struct{}, len(pts))
	for _, p := range pts {
		if p.DesignKey != "" {
			known[p.cacheKey()] = struct{}{}
		}
	}
	entries, corrupt := e.journal.Entries()
	st := ResumeStats{Corrupt: corrupt}
	for _, ent := range entries {
		if _, ok := known[ent.Key]; !ok {
			st.SkippedUnknown++
			metrics.Add("campaign.journal.skipped", 1)
			continue
		}
		if !e.cache.Put(ent.Key, ent.Res, ent.Steps) {
			st.Duplicate++
			e.journal.markSeen(ent.Key)
			continue
		}
		e.journal.markSeen(ent.Key)
		st.Replayed++
		metrics.Add("campaign.journal.replayed", 1)
		// Re-count the journaled speculation outcome: the resumed
		// campaign's predictor accounting must match the uninterrupted
		// run's, and the replayed point will never recompute to count
		// itself.
		countSpec(ent.Spec)
	}
	return st, nil
}

// Resume is Run preceded by a journal replay: every point already
// completed by the interrupted campaign is served from the journal
// (with its step records replayed to the Observer, like any memoized
// point), and only the remainder is computed. Because a flow run is a
// pure function of its point and results land by index, the resumed
// output is bit-identical to an uninterrupted run at any worker count.
func (e *Engine) Resume(ctx context.Context, pts []Point) ([]*flow.Result, ResumeStats, error) {
	st, err := e.Replay(pts)
	if err != nil {
		return nil, st, err
	}
	res, err := e.Run(ctx, pts)
	return res, st, err
}
