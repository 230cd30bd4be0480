package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// The keyed tests store strings under "key=value" payloads; a payload
// with no '=' is a record the decoder refuses.
func decodeKV(payload []byte) (string, string, error) {
	k, v, ok := strings.Cut(string(payload), "=")
	if !ok {
		return "", "", fmt.Errorf("no '=' in %q", payload)
	}
	return k, v, nil
}

func kv(key, val string) Item[string] {
	return Item[string]{Key: key, Value: val, Payload: []byte(key + "=" + val)}
}

func mustOpenKeyed(t *testing.T, dir string, opts Options) *Keyed[string] {
	t.Helper()
	k, err := OpenKeyed(dir, opts, decodeKV)
	if err != nil {
		t.Fatalf("OpenKeyed(%s): %v", dir, err)
	}
	return k
}

func mustPut(t *testing.T, k *Keyed[string], key, val string, wantStored bool) {
	t.Helper()
	it := kv(key, val)
	stored, err := k.Put(it.Key, it.Value, it.Payload)
	if err != nil || stored != wantStored {
		t.Fatalf("Put(%s=%s) = %t, %v; want %t, nil", key, val, stored, err, wantStored)
	}
}

// TestKeyedFirstWins: the first value under a key wins on put, and again
// when the log — which a duplicate never reached — is replayed.
func TestKeyedFirstWins(t *testing.T) {
	dir := t.TempDir()
	k := mustOpenKeyed(t, dir, Options{})
	mustPut(t, k, "a", "1", true)
	mustPut(t, k, "b", "2", true)
	mustPut(t, k, "a", "3", false)
	if v, ok := k.Get("a"); !ok || v != "1" {
		t.Fatalf(`Get("a") = %q, %t; want the first value`, v, ok)
	}
	if _, ok := k.Get("c"); ok {
		t.Fatal("Get of an absent key hit")
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	k2 := mustOpenKeyed(t, dir, Options{})
	defer k2.Close()
	if st := k2.Stats(); st.Recovered != 2 || st.Duplicate != 0 || st.Corrupt != 0 || st.Log.Records != 2 {
		t.Fatalf("replay stats %+v, want 2 recovered from 2 records", st)
	}
	if got := k2.Values(); !reflect.DeepEqual(got, []string{"1", "2"}) || k2.Len() != 2 {
		t.Fatalf("replayed values %q, want insertion order [1 2]", got)
	}
	mustPut(t, k2, "b", "9", false)
	mustPut(t, k2, "c", "4", true)
	if got := k2.Values(); !reflect.DeepEqual(got, []string{"1", "2", "4"}) {
		t.Fatalf("values %q: a put must land after the replayed ones", got)
	}
}

// TestKeyedStatsOnMixedLog: a log holding good, corrupt and duplicate
// frames replays the good ones first-wins and counts the rest.
func TestKeyedStatsOnMixedLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendAll(t, l, [][]byte{
		[]byte("a=1"), []byte("garbage"), []byte("b=2"), []byte("a=stale"), []byte("b=stale"), []byte(""), []byte("c=3"),
	})
	l.Close()
	k := mustOpenKeyed(t, dir, Options{})
	defer k.Close()
	want := KeyedStats{Log: RecoveryStats{Segments: 1, Records: 7}, Recovered: 3, Corrupt: 2, Duplicate: 2}
	if st := k.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if got := k.Values(); !reflect.DeepEqual(got, []string{"1", "2", "3"}) {
		t.Fatalf("values %q, want the first value of each key", got)
	}
}

// TestKeyedPutBatchGroupCommits: a batch dedupes against the store and
// within itself, returns the items that were new, and costs one sync.
func TestKeyedPutBatchGroupCommits(t *testing.T) {
	dir := t.TempDir()
	k := mustOpenKeyed(t, dir, Options{})
	mustPut(t, k, "a", "1", true)
	syncs, logged := metrics.Get("journal.sync.ok"), metrics.Get("journal.append.ok")
	added, err := k.PutBatch([]Item[string]{kv("b", "2"), kv("a", "x"), kv("c", "3"), kv("b", "y"), kv("d", "4")})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Item[string]{kv("b", "2"), kv("c", "3"), kv("d", "4")}; !reflect.DeepEqual(added, want) {
		t.Fatalf("added %v, want %v", added, want)
	}
	if n := metrics.Get("journal.sync.ok") - syncs; n != 1 {
		t.Fatalf("batch cost %d syncs, want 1", n)
	}
	if n := metrics.Get("journal.append.ok") - logged; n != 3 {
		t.Fatalf("log took %d records, want the 3 new ones", n)
	}
	// An all-duplicate batch touches nothing.
	if added, err := k.PutBatch([]Item[string]{kv("a", "z"), kv("d", "z")}); err != nil || len(added) != 0 {
		t.Fatalf("duplicate batch added %v, err %v", added, err)
	}
	if n := metrics.Get("journal.sync.ok") - syncs; n != 1 {
		t.Fatalf("duplicate batch synced (%d syncs in all)", n)
	}
	k.Close()
	k2 := mustOpenKeyed(t, dir, Options{})
	defer k2.Close()
	if got := k2.Values(); !reflect.DeepEqual(got, []string{"1", "2", "3", "4"}) {
		t.Fatalf("replayed %q", got)
	}
}

// TestKeyedPutAfterClose: durability degrades, liveness does not — the
// put is ErrClosed, the value is served, and the first failure is the one
// Err keeps.
func TestKeyedPutAfterClose(t *testing.T) {
	dir := t.TempDir()
	k := mustOpenKeyed(t, dir, Options{})
	mustPut(t, k, "a", "1", true)
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if k.Err() != nil {
		t.Fatalf("Err = %v before any failure", k.Err())
	}
	stored, err := k.Put("b", "2", []byte("b=2"))
	if !stored || !errors.Is(err, ErrClosed) {
		t.Fatalf("put after Close = %t, %v; want stored, ErrClosed", stored, err)
	}
	if v, ok := k.Get("b"); !ok || v != "2" {
		t.Fatal("value put after Close is not served")
	}
	first := k.Err()
	if !errors.Is(first, ErrClosed) {
		t.Fatalf("Err = %v, want ErrClosed", first)
	}
	// A duplicate appends nothing, so it fails nothing.
	if stored, err := k.Put("b", "3", []byte("b=3")); stored || err != nil {
		t.Fatalf("duplicate after Close = %t, %v", stored, err)
	}
	k2 := mustOpenKeyed(t, dir, Options{})
	defer k2.Close()
	if got := k2.Values(); !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("log holds %q, want only what was put before Close", got)
	}
}

// TestKeyedErrKeepsFirstFailure: a later append failure is returned by
// its put but does not replace the sticky one, and the log stays usable
// in between.
func TestKeyedErrKeepsFirstFailure(t *testing.T) {
	k := mustOpenKeyed(t, t.TempDir(), Options{})
	defer k.Close()
	boom1, boom2 := errors.New("disk full"), errors.New("disk gone")
	k.log.injectSync = func() error { return boom1 }
	if _, err := k.Put("a", "1", []byte("a=1")); !errors.Is(err, boom1) {
		t.Fatalf("put = %v, want the injected fault", err)
	}
	k.log.injectSync = nil
	mustPut(t, k, "b", "2", true)
	k.log.injectSync = func() error { return boom2 }
	if _, err := k.Put("c", "3", []byte("c=3")); !errors.Is(err, boom2) {
		t.Fatalf("put = %v, want the second fault", err)
	}
	if err := k.Err(); !errors.Is(err, boom1) {
		t.Fatalf("Err = %v, want the first failure", err)
	}
	if got := k.Values(); !reflect.DeepEqual(got, []string{"1", "2", "3"}) {
		t.Fatalf("values %q: a failed append must still serve from memory", got)
	}
}

// TestKeyedCloseRacesPuts: Close fired into a storm of puts neither
// panics nor tears the log — every put either landed before the close or
// got ErrClosed, every value is served, and the log reopens cleanly with
// exactly the ones that landed.
func TestKeyedCloseRacesPuts(t *testing.T) {
	dir := t.TempDir()
	k := mustOpenKeyed(t, dir, Options{Sync: SyncNever})
	const puts = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, puts)
	for i := 0; i < puts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			it := kv(fmt.Sprintf("k%02d", i), fmt.Sprint(i))
			_, errs[i] = k.Put(it.Key, it.Value, it.Payload)
		}(i)
	}
	wg.Add(1)
	var closeErr error
	go func() {
		defer wg.Done()
		<-start
		closeErr = k.Close()
	}()
	close(start)
	wg.Wait()
	if closeErr != nil {
		t.Fatalf("racing Close = %v", closeErr)
	}
	landed := 0
	for i, err := range errs {
		switch {
		case err == nil:
			landed++
		case !errors.Is(err, ErrClosed):
			t.Fatalf("put %d = %v, want nil or ErrClosed", i, err)
		}
	}
	if k.Len() != puts {
		t.Fatalf("store serves %d of %d values", k.Len(), puts)
	}
	if landed < puts && !errors.Is(k.Err(), ErrClosed) {
		t.Fatalf("%d puts lost the race but Err = %v", puts-landed, k.Err())
	}
	k2 := mustOpenKeyed(t, dir, Options{})
	defer k2.Close()
	if st := k2.Stats(); st.Recovered != landed || st.Corrupt != 0 || st.Duplicate != 0 || st.Log.TornTails != 0 {
		t.Fatalf("reopened stats %+v, want exactly the %d puts that landed", st, landed)
	}
}

// TestKeyedMemoryOnly: dir == "" is the same store with nothing under it.
func TestKeyedMemoryOnly(t *testing.T) {
	k := mustOpenKeyed(t, "", Options{})
	mustPut(t, k, "a", "1", true)
	mustPut(t, k, "a", "2", false)
	if added, err := k.PutBatch([]Item[string]{kv("b", "2"), kv("b", "3")}); err != nil || len(added) != 1 {
		t.Fatalf("batch added %v, err %v", added, err)
	}
	if got := k.Values(); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Fatalf("values %q", got)
	}
	if st := k.Stats(); st != (KeyedStats{}) {
		t.Fatalf("memory-only stats %+v, want zero", st)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, k, "c", "3", true) // nothing to close, so nothing to fail
	if k.Err() != nil {
		t.Fatalf("Err = %v", k.Err())
	}
}

// TestKeyedKillAtEveryByteBoundary drives the log's crash harness through
// OpenKeyed: whatever byte a kill truncated the segment at, the store
// replays a prefix of whole records in order, stays writable, and the
// post-crash put survives a clean reopen.
func TestKeyedKillAtEveryByteBoundary(t *testing.T) {
	srcDir := t.TempDir()
	src := mustOpenKeyed(t, srcDir, Options{Sync: SyncNever})
	var want []string
	for i, p := range payloads(8) {
		val := string(p)
		mustPut(t, src, fmt.Sprintf("k%d", i), val, true)
		want = append(want, val)
	}
	src.Close()
	img := segmentImages(t, srcDir)[0]

	for cut := 0; cut <= len(img); cut++ {
		dir := cutDir(t)
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		k, err := OpenKeyed(dir, Options{}, decodeKV)
		if err != nil {
			t.Fatalf("cut %d: OpenKeyed failed: %v", cut, err)
		}
		n := k.Len()
		if st := k.Stats(); st.Recovered != n || st.Corrupt != 0 || st.Duplicate != 0 {
			t.Fatalf("cut %d: stats %+v", cut, st)
		}
		if recs, _, ok := scanImage(img[:cut]); ok && len(recs) != n || !ok && n != 0 {
			t.Fatalf("cut %d: replayed %d values, the image holds %d whole records", cut, n, len(recs))
		}
		if got := k.Values(); n > 0 && !reflect.DeepEqual(got, want[:n]) {
			t.Fatalf("cut %d: replayed %q, want a prefix of what was put", cut, got)
		}
		mustPut(t, k, "post", "crash", true)
		k.Close()
		k2 := mustOpenKeyed(t, dir, Options{})
		if got := k2.Values(); !reflect.DeepEqual(got, append(append([]string{}, want[:n]...), "crash")) {
			t.Fatalf("cut %d: reopened to %q", cut, got)
		}
		k2.Close()
	}
}
