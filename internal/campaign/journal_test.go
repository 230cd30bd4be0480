package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/journal"
)

// journalCfg is the engine config the journal tests share: fault and
// hang injection plus the stage watchdog, so the crash-safety paths are
// exercised under the same adversity a real campaign sees. The retry
// budget is large enough that every point eventually completes, which
// (by the determinism contract) makes results bit-identical to the
// fault-free reference regardless of the fault schedule. Injected hangs
// are bounded (the tool recovers after 1 ms) and the watchdog deadline
// is generous, so a loaded -race machine never reaps a legitimately
// slow stage and exhausts the retry budget; the reap path itself is
// covered by TestWatchdogReapRetryConverges.
func journalCfg(workers int, jrn *Journal) Config {
	return Config{
		Workers:      workers,
		Cache:        journaledCache(jrn),
		Faults:       &flow.FaultInjector{Seed: 11, CrashRate: 0.06, LicenseDropRate: 0.05, HangRate: 0.05, HangFor: time.Millisecond},
		Retry:        Retry{Max: 40},
		StageTimeout: 5 * time.Second,
	}
}

// TestWatchdogReapRetryConverges: unbounded wedges reaped by the stage
// watchdog follow the retry path like any fault, and the campaign still
// converges to the fault-free reference. One worker keeps the scheduler
// from starving a guarded stage into a spurious reap on slow machines.
func TestWatchdogReapRetryConverges(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 1, 2)
	ctx := context.Background()
	want, err := New(Config{Workers: 1}).Run(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(Config{
		Workers:      1,
		Faults:       &flow.FaultInjector{Seed: 3, HangRate: 0.15},
		Retry:        Retry{Max: 60},
		StageTimeout: 150 * time.Millisecond,
	}).Run(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "watchdog-reap", got, want)
}

// journaledCache is a fresh unbounded cache with jrn as its durable tier
// — all it takes to make a campaign crash-safe and resumable.
func journaledCache(jrn *Journal) *Cache {
	c := NewCache(0)
	c.SetTier(jrn)
	return c
}

// resume runs pts on a fresh engine built from cfg — whose cache carries
// the journal under test — and reports what the journal served.
func resume(ctx context.Context, cfg Config, jrn *Journal, pts []Point) ([]*flow.Result, ResumeStats, error) {
	res, err := New(cfg).Run(ctx, pts)
	return res, jrn.ResumeStats(), err
}

func openJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	jrn, err := OpenJournal(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return jrn
}

// journalKeys reads a journal directory's raw log and returns the key of
// every record that decodes — duplicates included — plus the count of
// those that do not.
func journalKeys(t *testing.T, dir string) (keys []string, corrupt int) {
	t.Helper()
	log, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, rec := range log.Records() {
		e, err := DecodeEntry(rec)
		if err != nil {
			corrupt++
			continue
		}
		keys = append(keys, e.Key)
	}
	return keys, corrupt
}

// copyJournal clones a journal directory so a truncation experiment
// never disturbs the pristine source.
func copyJournal(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "journal")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func assertSameResults(t *testing.T, name string, got, want []*flow.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] == nil {
			t.Fatalf("%s: point %d missing", name, i)
		}
		// A replayed point is its journaled summary, a recomputed one the
		// full result: compare what both carry.
		if !reflect.DeepEqual(got[i].Summary(), want[i].Summary()) {
			t.Fatalf("%s: point %d diverged from uninterrupted reference", name, i)
		}
	}
}

// TestKillResumeSoak is the acceptance soak: a journaled campaign is
// "killed" at many byte offsets — every kill leaves a different torn
// journal — and resumed at worker counts 1 and 8. Every resume must
// reproduce the uninterrupted run bit-identically, and the journal must
// end holding every point exactly once: nothing lost, nothing
// duplicated.
func TestKillResumeSoak(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 2, 3)
	ctx := context.Background()

	want, err := New(Config{Workers: 2}).Run(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}

	// A complete journaled run builds the journal image the "kills"
	// truncate. Its own results must already match the reference.
	base := filepath.Join(t.TempDir(), "journal")
	jrn := openJournal(t, base)
	got, st, err := resume(ctx, journalCfg(4, jrn), jrn, pts)
	if err != nil {
		t.Fatal(err)
	}
	if jerr := jrn.Err(); jerr != nil {
		t.Fatal(jerr)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 0 || st.Corrupt != 0 {
		t.Fatalf("fresh journal replayed %+v, want zeros", st)
	}
	assertSameResults(t, "journaled run", got, want)

	segs, err := filepath.Glob(filepath.Join(base, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments (err=%v)", err)
	}
	seg := segs[len(segs)-1]
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	size := info.Size()

	// Kill points: nothing survives, header-only, five mid-file tears
	// (almost surely mid-record), a tear just inside the final record,
	// and no tear at all.
	offsets := []int64{0, 8}
	for k := int64(1); k <= 5; k++ {
		offsets = append(offsets, 8+k*(size-8)/6)
	}
	offsets = append(offsets, size-3, size)

	wantKeys := map[string]bool{}
	for _, p := range pts {
		wantKeys[p.CacheKey()] = true
	}

	for _, off := range offsets {
		for _, workers := range []int{1, 8} {
			dir := copyJournal(t, base)
			seg := filepath.Join(dir, filepath.Base(seg))
			if err := os.Truncate(seg, off); err != nil {
				t.Fatal(err)
			}
			jrn := openJournal(t, dir)
			got, st, err := resume(ctx, journalCfg(workers, jrn), jrn, pts)
			if err != nil {
				t.Fatalf("kill@%d workers=%d: %v", off, workers, err)
			}
			if jerr := jrn.Err(); jerr != nil {
				t.Fatalf("kill@%d workers=%d: journal error %v", off, workers, jerr)
			}
			if err := jrn.Close(); err != nil {
				t.Fatal(err)
			}
			if st.Corrupt != 0 || st.SkippedUnknown != 0 || st.Duplicate != 0 {
				t.Fatalf("kill@%d workers=%d: resume stats %+v", off, workers, st)
			}
			if st.Replayed+0 > len(pts) {
				t.Fatalf("kill@%d workers=%d: replayed %d of %d points", off, workers, st.Replayed, len(pts))
			}
			assertSameResults(t, "resume", got, want)

			// The healed journal must hold every point exactly once:
			// replayed survivors kept, truncated victims re-journaled,
			// no key twice.
			keys, corrupt := journalKeys(t, dir)
			if corrupt != 0 {
				t.Fatalf("kill@%d workers=%d: %d corrupt entries after resume", off, workers, corrupt)
			}
			seen := map[string]bool{}
			for _, k := range keys {
				if seen[k] {
					t.Fatalf("kill@%d workers=%d: key journaled twice", off, workers)
				}
				seen[k] = true
				if !wantKeys[k] {
					t.Fatalf("kill@%d workers=%d: unknown key in journal", off, workers)
				}
			}
			if len(seen) != len(pts) {
				t.Fatalf("kill@%d workers=%d: journal holds %d points, want %d", off, workers, len(seen), len(pts))
			}
		}
	}
}

// TestCancelledCampaignResumes kills a journaled campaign the
// cooperative way — context cancellation mid-flight — and resumes it.
func TestCancelledCampaignResumes(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 2, 3)
	bg := context.Background()
	want, err := New(Config{Workers: 2}).Run(bg, pts)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "journal")
	jrn := openJournal(t, dir)
	ctx, cancel := context.WithCancel(bg)
	var fired bool
	cfg := journalCfg(2, jrn)
	cfg.Observer = flow.ObserverFunc(func(rec flow.StepRecord) {
		// Pull the plug the first time any run reaches signoff.
		if rec.Step == "sta" && !fired {
			fired = true
			cancel()
		}
	})
	if _, _, err := resume(ctx, cfg, jrn, pts); err == nil {
		t.Fatal("cancelled campaign reported success")
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}

	jrn2 := openJournal(t, dir)
	defer jrn2.Close()
	got, st, err := resume(bg, journalCfg(8, jrn2), jrn2, pts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 0 || st.SkippedUnknown != 0 {
		t.Fatalf("resume stats %+v", st)
	}
	assertSameResults(t, "resume-after-cancel", got, want)
}

// TestResumeEmptyJournal: resuming with nothing on disk is just a run.
func TestResumeEmptyJournal(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 1, 3)
	want, err := New(Config{Workers: 1}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	jrn := openJournal(t, filepath.Join(t.TempDir(), "journal"))
	defer jrn.Close()
	got, st, err := resume(context.Background(), journalCfg(2, jrn), jrn, pts)
	if err != nil {
		t.Fatal(err)
	}
	if st != (ResumeStats{}) {
		t.Fatalf("stats %+v, want zero", st)
	}
	assertSameResults(t, "empty-journal", got, want)
}

// TestResumeTornTailOnlyJournal: a journal whose only content is a torn
// record — the crash hit during the very first append — must resume as
// if empty.
func TestResumeTornTailOnlyJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	img := append([]byte("SPRWAL1\n"), 0xff, 0x01, 0x02) // header + 3 torn bytes
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 1, 2)
	want, err := New(Config{Workers: 1}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	jrn := openJournal(t, dir)
	defer jrn.Close()
	if jrn.Stats().TornTails != 1 {
		t.Fatalf("recovery stats %+v, want one torn tail", jrn.Stats())
	}
	got, st, err := resume(context.Background(), journalCfg(2, jrn), jrn, pts)
	if err != nil {
		t.Fatal(err)
	}
	if st != (ResumeStats{}) {
		t.Fatalf("stats %+v, want zero", st)
	}
	assertSameResults(t, "torn-tail-only", got, want)
}

// TestResumeChangedSpecSkipsUnknown: resuming with a narrower campaign
// than the one that crashed must serve the surviving overlap and count
// — not fail on — the journal entries that no longer match any point.
func TestResumeChangedSpecSkipsUnknown(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 2, 3)
	ctx := context.Background()

	dir := filepath.Join(t.TempDir(), "journal")
	jrn := openJournal(t, dir)
	if _, _, err := resume(ctx, journalCfg(2, jrn), jrn, pts); err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}

	narrowed := pts[:3]
	want, err := New(Config{Workers: 1}).Run(ctx, narrowed)
	if err != nil {
		t.Fatal(err)
	}
	jrn2 := openJournal(t, dir)
	defer jrn2.Close()
	got, st, err := resume(ctx, journalCfg(2, jrn2), jrn2, narrowed)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 3 || st.SkippedUnknown != 3 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want 3 replayed, 3 skipped", st)
	}
	assertSameResults(t, "narrowed-spec", got, want)
	// The skipped entries stay on disk — a later resume with the full
	// spec can still use them.
	keys, _ := journalKeys(t, dir)
	if len(keys) != len(pts) {
		t.Fatalf("journal shrank to %d entries, want %d preserved", len(keys), len(pts))
	}
}

// TestDoubleResumeIdempotent: resuming an already-complete campaign
// serves everything from the journal, appends nothing, and replays one
// step-record set per point to the observer — twice in a row.
func TestDoubleResumeIdempotent(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 2, 3)
	ctx := context.Background()
	want, err := New(Config{Workers: 2}).Run(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "journal")
	jrn := openJournal(t, dir)
	if _, _, err := resume(ctx, journalCfg(2, jrn), jrn, pts); err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 2; round++ {
		jrn := openJournal(t, dir)
		synthRecords := 0
		cfg := journalCfg(1, jrn)
		cfg.Observer = flow.ObserverFunc(func(rec flow.StepRecord) {
			if rec.Step == "synth" {
				synthRecords++
			}
		})
		got, st, err := resume(ctx, cfg, jrn, pts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := jrn.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Replayed != len(pts) || st.Corrupt != 0 || st.SkippedUnknown != 0 {
			t.Fatalf("round %d: stats %+v, want %d replayed", round, st, len(pts))
		}
		if synthRecords != len(pts) {
			t.Fatalf("round %d: observer saw %d synth records, want %d", round, synthRecords, len(pts))
		}
		assertSameResults(t, "double-resume", got, want)
		keys, _ := journalKeys(t, dir)
		if len(keys) != len(pts) {
			t.Fatalf("round %d: journal grew to %d entries, want %d", round, len(keys), len(pts))
		}
	}
}

// TestJournalAppendFailureIsNonFatal: losing durability mid-campaign
// (disk full, volume gone) must not lose the live computation — the
// campaign completes and the failure is surfaced via Journal.Err.
func TestJournalAppendFailureIsNonFatal(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 1, 2)
	jrn := openJournal(t, filepath.Join(t.TempDir(), "journal"))
	// Closing the underlying log makes every append fail.
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := New(Config{Workers: 2, Cache: journaledCache(jrn)}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r == nil {
			t.Fatalf("point %d missing", i)
		}
	}
	if jrn.Err() == nil {
		t.Fatal("append failure not surfaced via Err")
	}
}

// TestResumeParentWrittenJournal: format compatibility is a test, not a
// promise. testdata/journal_parent is a three-point journal written by
// the commit before journal.Keyed existed (Engine.Run with
// Config.Journal: tiny design, DesignKey "fixture-tiny", 0.3 GHz, seeds
// 0..2); this build must serve all three points from it without running
// a flow — the design handed to the points is nil, so a recompute would
// not survive.
func TestResumeParentWrittenJournal(t *testing.T) {
	dir := copyJournal(t, filepath.Join("testdata", "journal_parent"))
	jrn := openJournal(t, dir)
	defer jrn.Close()
	pts := Points(nil, "fixture-tiny", flow.Options{TargetFreqGHz: 0.3}, []int64{0, 1, 2})
	var mu sync.Mutex
	steps := map[int64]int{}
	cfg := Config{Workers: 2, Cache: journaledCache(jrn), Observer: flow.ObserverFunc(func(rec flow.StepRecord) {
		mu.Lock()
		steps[rec.Options.Seed]++
		mu.Unlock()
	})}
	got, st, err := resume(context.Background(), cfg, jrn, pts)
	if err != nil {
		t.Fatal(err)
	}
	if st != (ResumeStats{Replayed: 3}) {
		t.Fatalf("stats %+v, want exactly 3 replayed", st)
	}
	wantWNS := []float64{2950.103248969831, 2950.812253476935, 2944.8731219197352}
	for i, r := range got {
		if r == nil || r.Options.Seed != int64(i) || r.AreaUm2 != 37.49500000000001 || r.WNSPs != wantWNS[i] {
			t.Fatalf("point %d replayed as %+v", i, r)
		}
		if steps[int64(i)] != 6 {
			t.Fatalf("point %d replayed %d step records, want the flow's 6", i, steps[int64(i)])
		}
	}
	if err := jrn.Err(); err != nil {
		t.Fatal(err)
	}
	if keys, corrupt := journalKeys(t, dir); len(keys) != 3 || corrupt != 0 {
		t.Fatalf("resume rewrote the journal: %d records, %d corrupt", len(keys), corrupt)
	}
}

// TestOpenParentWrittenSpeculativeJournal: testdata/journal_parent_spec
// is `sprflow -design tiny -sweep 2 -speculate -journal DIR` as written
// by the last build with speculative stage overlap, so each entry carries
// the run's speculation outcome and each Options its speculation config.
// Every record still decodes — gob skips the fields this tree lacks — and
// since every key ends in "spec=true stol=1", which no point of this tree
// spells, the whole journal counts as skipped while the same sweep
// computes afresh to the results the speculative run journaled.
func TestOpenParentWrittenSpeculativeJournal(t *testing.T) {
	dir := copyJournal(t, filepath.Join("testdata", "journal_parent_spec"))
	log, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[string]Entry{}
	for _, rec := range log.Records() {
		e, err := DecodeEntry(rec)
		if err != nil {
			t.Fatalf("record %d: %v", len(journaled), err)
		}
		journaled[e.Key] = e
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	jrn := openJournal(t, dir)
	defer jrn.Close()
	design := tinyDesign(1)
	var pts []Point
	for _, f := range []float64{0.4, 0.5, 0.6} {
		pts = append(pts, Points(design, KeyFor(design), flow.Options{TargetFreqGHz: f, SynthEffort: 2}, []int64{1, 2})...)
	}
	got, st, err := resume(context.Background(), Config{Workers: 2, Cache: journaledCache(jrn)}, jrn, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(journaled) != len(pts) || st != (ResumeStats{SkippedUnknown: len(pts)}) {
		t.Fatalf("%d records decoded, stats %+v: want %d records, all skipped", len(journaled), st, len(pts))
	}
	for i, p := range pts {
		key, ok := strings.CutSuffix(p.CacheKey(), " spec=false stol=0")
		if !ok {
			t.Fatalf("point %d: key %q", i, p.CacheKey())
		}
		e, ok := journaled[key+" spec=true stol=1"]
		if !ok {
			t.Fatalf("point %d: no speculative record for %q", i, key)
		}
		if !reflect.DeepEqual(e.Res, got[i].Summary()) || len(e.Steps) != 6 {
			t.Fatalf("point %d: journaled %+v, computed %+v", i, e.Res, got[i].Summary())
		}
	}
}

// TestJournalReloadAfterEvictionCountsOnce: behind an L1 too small for
// the campaign the journal is asked for the same key again and again. A
// recovered entry is a replay the first time only, and an entry this
// process stored never is.
func TestJournalReloadAfterEvictionCountsOnce(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 8, 5) // more points than L1 has shards
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "journal")
	for life, wantReplayed := range []int{0, len(pts)} {
		jrn := openJournal(t, dir)
		cache := NewCache(1) // one entry per shard: colliding points evict each other
		cache.SetTier(jrn)
		eng := New(Config{Workers: 1, Cache: cache})
		for round := 0; round < 3; round++ {
			if _, err := eng.Run(ctx, pts); err != nil {
				t.Fatal(err)
			}
		}
		if cs := cache.Stats(); cs.Evictions == 0 || cs.TierHits <= int64(wantReplayed) {
			t.Fatalf("life %d: cache stats %+v: no evicted entry was reloaded", life, cs)
		}
		if st := jrn.ResumeStats(); st != (ResumeStats{Replayed: wantReplayed}) {
			t.Fatalf("life %d: stats %+v, want %d replayed and nothing else", life, st, wantReplayed)
		}
		if err := jrn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if keys, _ := journalKeys(t, dir); len(keys) != len(pts) {
		t.Fatalf("journal holds %d records for %d points", len(keys), len(pts))
	}
}
