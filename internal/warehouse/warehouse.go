// Package warehouse is the reproduction's central METRICS store — the
// paper's Fig. 11 "central data warehouse" for the flow infrastructure
// itself. Every flow stage of every campaign point, on every node,
// produces one structured record (QoR scalars, options key, node,
// corner); records are ingested over HTTP from the whole fleet, made
// durable in a journal.Keyed (first-wins under the dedupe key, in the WAL
// before visible — the one policy every durable store here has), and
// served back through a query/aggregate API, an SSE live tail, and a
// miner: campaign-to-campaign regressions, and the Fig. 11 guidance
// (best met target, achievable frequency range, next-run options,
// option sensitivities) that the METRICS loop feeds back into the flow.
//
// Determinism contract: the flow is deterministic per (design, options)
// point, so records for the same (campaign, point, stage) are identical
// no matter which node computed them, whether the point was a cache hit
// or a recompute, or how many times a retry re-emitted the stage. The
// warehouse therefore dedupes first-wins on that triple, and its
// canonical dump (which excludes the non-deterministic Node/Unix/
// Outcome fields) is byte-identical across node counts and across
// crash/replay.
package warehouse

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Record is one flow stage of one campaign point as the warehouse
// stores it.
type Record struct {
	Campaign string // campaign id (hex of the sweep-spec hash)
	Point    int    // index in the campaign's canonical point list
	Stage    string // "synth", "place", "cts", "groute", "droute", "sta"
	Node     string // node that emitted it ("local", "w0", ...)
	Corner   string // analysis corner (single-corner flow: "typ")
	Key      string // canonical flow.Options key of the point
	Design   string
	Seed     int64
	FreqGHz  float64
	Outcome  string             // trace outcome of the emitting run ("ok", ...)
	Scalars  map[string]float64 // the stage's QoR/runtime metrics
	Unix     int64              // ingest wall-clock, seconds
}

// dedupeKey identifies the deterministic content of a record: one
// record per (campaign, point, stage) survives, first-wins.
func (r Record) dedupeKey() string {
	return r.Campaign + "\x00" + strconv.Itoa(r.Point) + "\x00" + r.Stage
}

// Stats summarizes a warehouse.
type Stats struct {
	Records  int   // live (deduped) records
	Deduped  int64 // ingested or replayed records dropped as duplicates
	Replayed int   // records recovered from the WAL at Open
	Corrupt  int   // CRC-valid WAL records that were not a Record (skipped)
	Torn     int   // WAL segments with torn tails truncated at Open
}

// Warehouse is the store: a journal.Keyed of records under their dedupe
// key, plus the live-tail subscribers. All methods are safe for
// concurrent use.
type Warehouse struct {
	recs    *journal.Keyed[Record]
	deduped atomic.Int64 // duplicates refused since Open

	mu   sync.Mutex // guards subs, and orders sends against channel closes
	subs map[chan Record]bool
}

// Open opens (or creates) a warehouse backed by the WAL in dir and
// replays every durable record. dir == "" is memory-only (tests,
// single-shot runs).
func Open(dir string, opts journal.Options) (*Warehouse, error) {
	var dec replayDecoder
	recs, err := journal.OpenKeyed(dir, opts, func(payload []byte) (string, Record, error) {
		// A corrupt-but-CRC-valid record means a writer bug, not media
		// damage; it is counted and skipped, not a reason to refuse the
		// whole store.
		rec, err := dec.decodeRecord(payload)
		return rec.dedupeKey(), rec, err
	})
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	st := recs.Stats()
	metrics.Add("warehouse.replayed", int64(st.Recovered))
	if st.Corrupt > 0 {
		metrics.Add("warehouse.corrupt", int64(st.Corrupt))
	}
	return &Warehouse{recs: recs, subs: map[chan Record]bool{}}, nil
}

// Append ingests one record: AppendBatch of one.
func (w *Warehouse) Append(rec Record) error { return w.AppendBatch([]Record{rec}) }

// AppendBatch ingests records under one WAL group commit (durable before
// visible — one journal.Keyed.PutBatch, so one fsync for the batch).
// Duplicate (campaign, point, stage) records — of a stored record, of an
// earlier one in the batch, or of one a concurrent batch is ingesting —
// never reach the WAL: determinism makes them identical, so at-least-once
// delivery from the fleet is safe. A WAL error is returned, but the batch
// is ingested in memory all the same (a retry then dedupes). A record
// json.Marshal refuses (a ±Inf or NaN scalar) is skipped alone, counted
// in warehouse.unencodable and named in the returned error; the rest of
// the batch is ingested.
func (w *Warehouse) AppendBatch(recs []Record) error {
	var items []journal.Item[Record]
	var errs []error // one per record json.Marshal refuses, then the WAL's
	for i, rec := range recs {
		k := rec.dedupeKey()
		if _, dup := w.recs.Get(k); dup {
			continue // the common resend costs no encode; PutBatch decides the rest
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			errs = append(errs, fmt.Errorf("warehouse: encode %s/%d/%s: %w", rec.Campaign, rec.Point, rec.Stage, err))
			continue
		}
		if items == nil {
			items = make([]journal.Item[Record], 0, len(recs)-i)
		}
		items = append(items, journal.Item[Record]{Key: k, Value: rec, Payload: payload})
	}
	added, err := w.recs.PutBatch(items)
	if len(added) > 0 {
		metrics.Add("warehouse.appended", int64(len(added)))
		w.mu.Lock()
		for _, it := range added {
			for ch := range w.subs {
				select {
				case ch <- it.Value:
				default: // a slow tail subscriber drops, never blocks ingest
				}
			}
		}
		w.mu.Unlock()
	}
	if dups := len(recs) - len(errs) - len(added); dups > 0 {
		w.deduped.Add(int64(dups))
		metrics.Add("warehouse.deduped", int64(dups))
	}
	if len(errs) > 0 {
		metrics.Add("warehouse.unencodable", int64(len(errs)))
	}
	if err != nil {
		errs = append(errs, fmt.Errorf("warehouse: append: %w", err))
	}
	return errors.Join(errs...)
}

// Appender is the ingest interface: the in-process *Warehouse and the
// HTTP *Client both implement it, so emitters don't care whether the
// store is local or remote.
type Appender interface {
	Append(rec Record) error
}

// Query filters records. Zero fields match everything.
type Query struct {
	Campaign string
	Stage    string
	Node     string
	Design   string
	Since    int64 // unix seconds, inclusive
}

func (q Query) match(r Record) bool {
	if q.Campaign != "" && r.Campaign != q.Campaign {
		return false
	}
	if q.Stage != "" && r.Stage != q.Stage {
		return false
	}
	if q.Node != "" && r.Node != q.Node {
		return false
	}
	if q.Design != "" && r.Design != q.Design {
		return false
	}
	if q.Since != 0 && r.Unix < q.Since {
		return false
	}
	return true
}

// Select returns the matching records sorted canonically (campaign,
// point, stage).
func (w *Warehouse) Select(q Query) []Record {
	var out []Record
	for _, r := range w.recs.Values() {
		if q.match(r) {
			out = append(out, r)
		}
	}
	sortCanonical(out)
	return out
}

func sortCanonical(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Campaign != b.Campaign {
			return a.Campaign < b.Campaign
		}
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		return a.Stage < b.Stage
	})
}

// Aggregate folds the magnitude of the named scalar of every matching
// record (wns_ps is negative when timing fails) into one histogram,
// yielding count/mean/p50/p90/p99/max across the fleet in one pass, in
// the scalar's own unit.
func (w *Warehouse) Aggregate(q Query, scalar string) trace.HistSnapshot {
	h := &trace.Hist{}
	for _, r := range w.Select(q) {
		if v, ok := r.Scalars[scalar]; ok {
			h.Add(math.Abs(v))
		}
	}
	return h.Snapshot(scalar)
}

// Subscribe registers a live-tail channel receiving every record as it
// is ingested. The returned cancel unregisters and closes it.
func (w *Warehouse) Subscribe() (<-chan Record, func()) {
	ch := make(chan Record, 256)
	w.mu.Lock()
	w.subs[ch] = true
	w.mu.Unlock()
	cancel := func() {
		w.mu.Lock()
		if w.subs[ch] {
			delete(w.subs, ch)
			close(ch)
		}
		w.mu.Unlock()
	}
	return ch, cancel
}

// DumpCanonical writes the campaign's records in canonical order with
// the non-deterministic fields (Node, Unix, Outcome) omitted — the
// byte-diff currency of the determinism contract: the dump is identical
// at any node count and after any crash/replay.
func (w *Warehouse) DumpCanonical(out io.Writer, campaign string) {
	for _, r := range w.Select(Query{Campaign: campaign}) {
		fmt.Fprintf(out, "record campaign=%s point=%d stage=%s corner=%s design=%s seed=%d freq=%g key=%q",
			r.Campaign, r.Point, r.Stage, r.Corner, r.Design, r.Seed, r.FreqGHz, r.Key)
		keys := make([]string, 0, len(r.Scalars))
		for k := range r.Scalars {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, " %s=%g", k, r.Scalars[k])
		}
		fmt.Fprintln(out)
	}
}

// Stats returns store counters.
func (w *Warehouse) Stats() Stats {
	st := w.recs.Stats()
	return Stats{
		Records: w.recs.Len(), Deduped: w.deduped.Load() + int64(st.Duplicate),
		Replayed: st.Recovered, Corrupt: st.Corrupt, Torn: st.Log.TornTails,
	}
}

// Close flushes and closes the WAL (memory-only warehouses are a
// no-op) and drops every tail subscriber.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	for ch := range w.subs {
		delete(w.subs, ch)
		close(ch)
	}
	w.mu.Unlock()
	return w.recs.Close()
}
