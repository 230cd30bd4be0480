// Package warehouse is the reproduction's central METRICS store — the
// paper's Fig. 11 "central data warehouse" for the flow infrastructure
// itself. Every flow stage of every campaign point, on every node,
// produces one structured record (QoR scalars, options key, node,
// corner); records are ingested over HTTP from the whole fleet, made
// durable in a CRC-framed WAL (internal/journal), and served back
// through a query/aggregate API, an SSE live tail, and a regression
// miner — the substrate the ROADMAP's "continuously learning prediction
// service" trains from.
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
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Record is one flow stage of one campaign point as the warehouse
// stores it.
type Record struct {
	Campaign string  // campaign id (hex of the sweep-spec hash)
	Point    int     // index in the campaign's canonical point list
	Stage    string  // "synth", "place", "cts", "groute", "droute", "sta", "recover"
	Node     string  // node that emitted it ("local", "w0", ...)
	Corner   string  // analysis corner (single-corner flow: "typ")
	Key      string  // canonical flow.Options key of the point
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
	return fmt.Sprintf("%s\x00%d\x00%s", r.Campaign, r.Point, r.Stage)
}

// Stats summarizes a warehouse.
type Stats struct {
	Records  int   // live (deduped) records
	Deduped  int64 // ingested records dropped as duplicates
	Replayed int   // records recovered from the WAL at Open
	Torn     int   // WAL segments with torn tails truncated at Open
}

// Warehouse is the store. All methods are safe for concurrent use.
type Warehouse struct {
	mu    sync.RWMutex
	log   *journal.Log // nil = memory only
	recs  []Record
	index map[string]int // dedupeKey → recs index
	subs  map[chan Record]bool

	deduped  int64
	replayed int
	torn     int
}

// Open opens (or creates) a warehouse backed by the WAL in dir and
// replays every durable record. dir == "" is memory-only (tests,
// single-shot runs).
func Open(dir string, opts journal.Options) (*Warehouse, error) {
	w := &Warehouse{index: map[string]int{}, subs: map[chan Record]bool{}}
	if dir == "" {
		return w, nil
	}
	log, err := journal.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	w.log = log
	for _, payload := range log.Records() {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A corrupt-but-CRC-valid record means a writer bug, not media
			// damage; skip it rather than refusing the whole store.
			continue
		}
		if w.insert(rec) {
			w.replayed++
		}
	}
	w.torn = log.Stats().TornTails
	metrics.Add("warehouse.replayed", int64(w.replayed))
	return w, nil
}

// insert adds rec to the in-memory index (no WAL write). Returns false
// for duplicates. Caller holds no lock; insert takes it.
func (w *Warehouse) insert(rec Record) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.index[rec.dedupeKey()]; dup {
		w.deduped++
		return false
	}
	w.index[rec.dedupeKey()] = len(w.recs)
	w.recs = append(w.recs, rec)
	for ch := range w.subs {
		select {
		case ch <- rec:
		default: // a slow tail subscriber drops, never blocks ingest
		}
	}
	return true
}

// Append ingests one record: AppendBatch of one.
func (w *Warehouse) Append(rec Record) error { return w.AppendBatch([]Record{rec}) }

// AppendBatch ingests records under one WAL group commit: WAL first
// (durable before visible — one journal.AppendBatch, so one fsync for
// the batch), then the in-memory index. Duplicate (campaign, point,
// stage) records — of a stored record or of an earlier one in the batch
// — are dropped before the WAL: determinism makes them identical, so
// at-least-once delivery from the fleet is safe. A WAL error ingests
// none of the batch.
func (w *Warehouse) AppendBatch(recs []Record) error {
	var payloads [][]byte
	inBatch := make(map[string]bool, len(recs))
	w.mu.RLock()
	log := w.log
	for _, rec := range recs {
		k := rec.dedupeKey()
		if _, dup := w.index[k]; dup || inBatch[k] || log == nil {
			continue
		}
		inBatch[k] = true
		payload, err := json.Marshal(rec)
		if err != nil {
			w.mu.RUnlock()
			return fmt.Errorf("warehouse: encode: %w", err)
		}
		payloads = append(payloads, payload)
	}
	w.mu.RUnlock()
	if len(payloads) > 0 {
		if err := log.AppendBatch(payloads); err != nil {
			return fmt.Errorf("warehouse: append: %w", err)
		}
	}
	appended := 0
	for _, rec := range recs {
		if w.insert(rec) { // counts the duplicates it refuses
			appended++
		}
	}
	if appended > 0 {
		metrics.Add("warehouse.appended", int64(appended))
	}
	if appended < len(recs) {
		metrics.Add("warehouse.deduped", int64(len(recs)-appended))
	}
	return nil
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
	w.mu.RLock()
	var out []Record
	for _, r := range w.recs {
		if q.match(r) {
			out = append(out, r)
		}
	}
	w.mu.RUnlock()
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

// Aggregate folds the named scalar of every matching record into a
// latency-histogram snapshot (the existing trace.Hist machinery, with
// the scalar read as microseconds), yielding count/mean/p50/p90/p99/max
// across the fleet in one pass.
func (w *Warehouse) Aggregate(q Query, scalar string) trace.HistSnapshot {
	h := &trace.Hist{}
	for _, r := range w.Select(q) {
		v, ok := r.Scalars[scalar]
		if !ok {
			continue
		}
		if v < 0 {
			v = -v // magnitudes: wns_ps is negative when timing fails
		}
		h.Observe(time.Duration(v * float64(time.Microsecond)))
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
	w.mu.RLock()
	defer w.mu.RUnlock()
	return Stats{Records: len(w.recs), Deduped: w.deduped, Replayed: w.replayed, Torn: w.torn}
}

// Close flushes and closes the WAL (memory-only warehouses are a
// no-op) and drops every tail subscriber.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	for ch := range w.subs {
		delete(w.subs, ch)
		close(ch)
	}
	log := w.log
	w.log = nil
	w.mu.Unlock()
	if log != nil {
		return log.Close()
	}
	return nil
}
