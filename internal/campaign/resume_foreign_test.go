package campaign

import (
	"context"
	"reflect"
	"testing"
)

// TestResumeSkipsForeignEntries: a journal holding entries for points
// outside the resumed spec (a narrowed campaign, or a directory shared
// with another sweep) must skip them — counted, preserved on disk, and
// never in L1, where a colliding lookup could serve a stale result. With
// the journal a tier this is by construction: only a key the campaign
// asks for is ever loaded.
func TestResumeSkipsForeignEntries(t *testing.T) {
	design := tinyDesign(1)
	key := KeyFor(design)
	dir := t.TempDir()

	// First campaign journals the wide spec: 2 freqs x 2 seeds.
	wide := sweepPoints(design, key, 2, 2)
	jrn := openJournal(t, dir)
	eng := New(Config{Workers: 2, Cache: journaledCache(jrn)})
	wideRes, err := eng.Run(context.Background(), wide)
	if err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume with a narrowed spec: only the first frequency's points.
	narrow := wide[:2]
	jrn2 := openJournal(t, dir)
	defer jrn2.Close()
	cache := journaledCache(jrn2)
	res, st, err := resume(context.Background(), Config{Workers: 2, Cache: cache}, jrn2, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != len(narrow) {
		t.Fatalf("replayed %d, want %d", st.Replayed, len(narrow))
	}
	if st.SkippedUnknown != len(wide)-len(narrow) {
		t.Fatalf("skipped %d foreign entries, want %d", st.SkippedUnknown, len(wide)-len(narrow))
	}
	if st.Corrupt != 0 || st.Duplicate != 0 {
		t.Fatalf("unexpected resume stats: %+v", st)
	}
	// Replayed results match the original run bit-for-bit.
	for i := range narrow {
		if !reflect.DeepEqual(res[i], wideRes[i].Summary()) {
			t.Fatalf("point %d changed across resume", i)
		}
	}
	// The foreign entries never touched the cache: only the narrow
	// keys are resident, and every narrow point was a replay hit (no
	// recompute).
	cs := cache.Stats()
	if cs.Entries != len(narrow) {
		t.Fatalf("cache holds %d entries, want %d (foreign keys must not be seeded)", cs.Entries, len(narrow))
	}
	for _, p := range wide[2:] {
		if _, ok := cache.probe(p.CacheKey()); ok {
			t.Fatalf("foreign key %q was seeded into the cache", p.CacheKey())
		}
	}
	if cs.Misses != 0 {
		t.Fatalf("resume recomputed %d points, want 0", cs.Misses)
	}

	// The skipped entries are preserved on disk for the wide spec: a
	// later wide resume replays all of them.
	if err := jrn2.Close(); err != nil {
		t.Fatal(err)
	}
	jrn3 := openJournal(t, dir)
	defer jrn3.Close()
	res3, st3, err := resume(context.Background(), Config{Workers: 2, Cache: journaledCache(jrn3)}, jrn3, wide)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Replayed != len(wide) || st3.SkippedUnknown != 0 {
		t.Fatalf("wide resume stats: %+v", st3)
	}
	for i := range wide {
		if !reflect.DeepEqual(res3[i], wideRes[i].Summary()) {
			t.Fatalf("wide resume point %d diverged", i)
		}
	}
}
