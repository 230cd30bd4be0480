package warehouse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/metrics"
)

func rec(campaign string, point int, stage string, scalars map[string]float64) Record {
	return Record{
		Campaign: campaign, Point: point, Stage: stage,
		Node: "w0", Corner: "typ", Key: "k", Design: "tiny",
		Seed: 1, FreqGHz: 0.5, Outcome: "ok", Scalars: scalars, Unix: 100,
	}
}

// TestDedupeFirstWins: at-least-once delivery from the fleet must not
// multiply records — one survivor per (campaign, point, stage).
func TestDedupeFirstWins(t *testing.T) {
	w, err := Open("", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	first := rec("c", 0, "sta", map[string]float64{"wns_ps": -12})
	for i := 0; i < 3; i++ {
		if err := w.Append(first); err != nil {
			t.Fatal(err)
		}
	}
	// Different node, same triple: still a duplicate (determinism makes
	// the content identical; first wins).
	dup := first
	dup.Node = "w1"
	if err := w.Append(dup); err != nil {
		t.Fatal(err)
	}
	// A different stage of the same point is NOT a duplicate.
	if err := w.Append(rec("c", 0, "synth", map[string]float64{"area_um2": 9})); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Records != 2 || st.Deduped != 3 {
		t.Fatalf("stats = %+v, want 2 records / 3 deduped", st)
	}
	if got := w.Select(Query{Campaign: "c", Node: "w0"}); len(got) != 2 {
		t.Fatalf("first-wins lost: node filter w0 matched %d, want 2", len(got))
	}
}

// TestWALReplayByteIdentical: reopen after a simulated crash (no Close)
// and the canonical dump must be byte-identical — the ISSUE's
// durability acceptance clause.
func TestWALReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		for _, stage := range []string{"synth", "place", "sta"} {
			if err := w.Append(rec("c", p, stage, map[string]float64{"t_ms": float64(10 * p), "wns_ps": -float64(p)})); err != nil {
				t.Fatal(err)
			}
		}
	}
	var before bytes.Buffer
	w.DumpCanonical(&before, "c")
	// Crash: drop the handle without Close; the WAL is append-before-
	// visible so everything dumped above is already durable.

	w2, err := Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var after bytes.Buffer
	w2.DumpCanonical(&after, "c")
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("replay dump differs:\n--- before\n%s--- after\n%s", &before, &after)
	}
	if st := w2.Stats(); st.Replayed != 12 || st.Records != 12 {
		t.Fatalf("replay stats = %+v, want 12 replayed / 12 records", st)
	}
}

// TestSelectAggregate: canonical ordering and histogram folding.
func TestSelectAggregate(t *testing.T) {
	w, _ := Open("", journal.Options{})
	defer w.Close()
	// Insert out of order; Select must come back (campaign, point, stage).
	w.Append(rec("c", 1, "sta", map[string]float64{"wns_ps": -200})) //nolint:errcheck
	w.Append(rec("c", 0, "synth", map[string]float64{"t_ms": 5}))    //nolint:errcheck
	w.Append(rec("c", 0, "place", map[string]float64{"t_ms": 7}))    //nolint:errcheck
	got := w.Select(Query{Campaign: "c"})
	if len(got) != 3 || got[0].Stage != "place" || got[1].Stage != "synth" || got[2].Point != 1 {
		t.Fatalf("canonical order broken: %+v", got)
	}
	snap := w.Aggregate(Query{Campaign: "c", Stage: "sta"}, "wns_ps")
	if snap.Count != 1 || snap.Max != 200 {
		t.Fatalf("aggregate = %+v, want count 1 max 200 (magnitude of -200)", snap)
	}
	if snap = w.Aggregate(Query{Campaign: "c"}, "t_ms"); snap.Count != 2 {
		t.Fatalf("t_ms aggregate count = %d, want 2", snap.Count)
	}
}

// TestAggregateBelowOne: scalars are values, not whole microseconds —
// ones below 1 keep their quantiles and their mean.
func TestAggregateBelowOne(t *testing.T) {
	w, _ := Open("", journal.Options{})
	defer w.Close()
	for p := 0; p < 3; p++ {
		w.Append(rec("c", p, "sta", map[string]float64{"ratio": 0.1})) //nolint:errcheck
	}
	w.Append(rec("d", 0, "sta", map[string]float64{"tiny": 0.0004})) //nolint:errcheck
	if s := w.Aggregate(Query{Campaign: "c"}, "ratio"); s.Count != 3 || s.P50 > 0.125 {
		t.Errorf("{0.1, 0.1, 0.1}: count %d p50 %g, want 3 and <= 0.125", s.Count, s.P50)
	}
	if s := w.Aggregate(Query{Campaign: "d"}, "tiny"); s.Mean != 0.0004 {
		t.Errorf("mean of {0.0004} = %g", s.Mean)
	}
}

// TestMine flags regressions in the right direction for both
// lower-is-better and higher-is-better scalars.
func TestMine(t *testing.T) {
	w, _ := Open("", journal.Options{})
	defer w.Close()
	w.Append(rec("base", 0, "droute", map[string]float64{"t_ms": 100, "wns_ps": -50})) //nolint:errcheck
	w.Append(rec("head", 0, "droute", map[string]float64{"t_ms": 110, "wns_ps": -40})) //nolint:errcheck
	regs := Mine(w, "base", "head", 1.0)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", len(regs), regs)
	}
	// Worse-first ordering: the 10% runtime regression leads.
	if !regs[0].Worse || regs[0].Scalar != "t_ms" || regs[0].DeltaPct < 9.9 || regs[0].DeltaPct > 10.1 {
		t.Fatalf("runtime regression mis-flagged: %+v", regs[0])
	}
	// wns went -50 → -40: numerically +20% but slack improved.
	if regs[1].Worse || regs[1].Scalar != "wns_ps" {
		t.Fatalf("slack improvement mis-flagged as regression: %+v", regs[1])
	}
}

// TestHTTPIngestQueryTail drives the full HTTP surface: client-batch
// ingest, query, aggregate, canonical dump, stats, and the SSE tail.
func TestHTTPIngestQueryTail(t *testing.T) {
	w, _ := Open("", journal.Options{})
	defer w.Close()
	srv := httptest.NewServer(NewHandler(w))
	defer srv.Close()

	// Open the tail before ingesting so the events stream to it.
	tailResp, err := http.Get(srv.URL + "/v1/tail?stage=sta")
	if err != nil {
		t.Fatal(err)
	}
	defer tailResp.Body.Close()

	c := NewClient(srv.URL)
	batch := []Record{
		rec("c", 0, "sta", map[string]float64{"wns_ps": -3}),
		rec("c", 0, "synth", map[string]float64{"t_ms": 4}),
	}
	if err := c.AppendBatch(batch); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := c.Append(batch[0]); err != nil { // duplicate, absorbed
		t.Fatal(err)
	}

	var got []Record
	resp, err := http.Get(srv.URL + "/v1/records?campaign=c&stage=sta")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(got) != 1 || got[0].Scalars["wns_ps"] != -3 {
		t.Fatalf("query returned %+v", got)
	}

	resp, err = http.Get(srv.URL + "/v1/dump?campaign=c")
	if err != nil {
		t.Fatal(err)
	}
	dump, _ := readAll(resp)
	if !strings.Contains(dump, "stage=sta") || !strings.Contains(dump, "wns_ps=-3") {
		t.Fatalf("dump:\n%s", dump)
	}
	if strings.Contains(dump, "w0") {
		t.Fatalf("canonical dump leaked the node name:\n%s", dump)
	}

	// The tail saw the sta record (filtered) as an SSE event.
	sc := bufio.NewScanner(tailResp.Body)
	var event, data string
	for sc.Scan() && data == "" {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if event != "record" || !strings.Contains(data, `"Stage":"sta"`) {
		t.Fatalf("tail event=%q data=%q", event, data)
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.String(), err
}

// TestAppendBatchGroupCommits: a batch is one WAL sync however many
// records it carries, dedupes per record — against the store and inside
// the batch — before the WAL, and replays like single appends.
func TestAppendBatchGroupCommits(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec("c", 0, "synth", map[string]float64{"area": 1})); err != nil {
		t.Fatal(err)
	}
	var batch []Record
	for p := 0; p < 5; p++ {
		for _, stage := range []string{"synth", "place", "sta"} {
			batch = append(batch, rec("c", p, stage, map[string]float64{"t_ms": float64(p)}))
		}
	}
	batch = append(batch, batch[4]) // a duplicate inside the batch
	syncs, logged := metrics.Get("journal.sync.ok"), metrics.Get("journal.append.ok")
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if n := metrics.Get("journal.sync.ok") - syncs; n != 1 {
		t.Fatalf("batch of %d records cost %d syncs, want 1", len(batch), n)
	}
	if n := metrics.Get("journal.append.ok") - logged; n != 14 {
		t.Fatalf("WAL took %d records, want 14 (16 minus one stored, one repeated)", n)
	}
	if st := w.Stats(); st.Records != 15 || st.Deduped != 2 {
		t.Fatalf("stats = %+v, want 15 records / 2 deduped", st)
	}
	var before bytes.Buffer
	w.DumpCanonical(&before, "c")
	w2, err := Open(dir, journal.Options{}) // no Close: crash
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var after bytes.Buffer
	w2.DumpCanonical(&after, "c")
	if !bytes.Equal(before.Bytes(), after.Bytes()) || w2.Stats().Replayed != 15 {
		t.Fatalf("replay of a batched WAL differs (replayed %d)", w2.Stats().Replayed)
	}
}

// TestConcurrentDuplicateIngestReachesWALOnce: the fleet delivers at
// least once — a client retry, two nodes that both computed a point — so
// the same records arrive concurrently. The duplicate check and the WAL
// append share one lock, so each record reaches the WAL exactly once
// however the deliveries interleave.
func TestConcurrentDuplicateIngestReachesWALOnce(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var batch []Record
	for p := 0; p < 16; p++ {
		for _, stage := range []string{"synth", "place", "droute", "sta"} {
			batch = append(batch, rec("c", p, stage, map[string]float64{"t_ms": float64(p)}))
		}
	}
	const senders = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := w.AppendBatch(batch); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if st := w.Stats(); st.Records != len(batch) || st.Deduped != int64((senders-1)*len(batch)) {
		t.Fatalf("stats %+v, want %d records and %d deduped", st, len(batch), (senders-1)*len(batch))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if n := len(log.Records()); n != len(batch) {
		t.Fatalf("WAL holds %d frames for %d distinct records", n, len(batch))
	}
}

// TestCorruptRecordCounted: a CRC-valid WAL record that is not a Record
// is skipped at Open and shows in Stats, instead of vanishing.
func TestCorruptRecordCounted(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec("c", 0, "sta", nil)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	log, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append([]byte("{not a record")); err != nil {
		t.Fatal(err)
	}
	log.Close()
	w2, err := Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st := w2.Stats(); st.Replayed != 1 || st.Corrupt != 1 || st.Records != 1 {
		t.Fatalf("stats %+v, want 1 replayed and 1 corrupt", st)
	}
}

// TestClientAppendBatchSkipsUnencodable: on the HTTP path too, a record
// json.Marshal refuses costs that record alone — the other two of its batch
// reach the warehouse, the skip is counted, and the error names it.
func TestClientAppendBatchSkipsUnencodable(t *testing.T) {
	w, _ := Open("", journal.Options{})
	defer w.Close()
	srv := httptest.NewServer(NewHandler(w))
	defer srv.Close()
	before := metrics.Get("warehouse.unencodable")
	err := NewClient(srv.URL).AppendBatch([]Record{
		rec("c", 0, "sta", map[string]float64{"wns": -3}),
		rec("c", 1, "sta", map[string]float64{"wns": math.Inf(1)}),
		rec("c", 2, "sta", map[string]float64{"wns": 5}),
	})
	if err == nil || !strings.Contains(err.Error(), "c/1/sta") {
		t.Fatalf("AppendBatch err = %v, want one naming c/1/sta", err)
	}
	if n := metrics.Get("warehouse.unencodable") - before; n != 1 {
		t.Fatalf("warehouse.unencodable moved by %d, want 1", n)
	}
	got := w.Select(Query{Campaign: "c"})
	if len(got) != 2 || got[0].Point != 0 || got[1].Point != 2 {
		t.Fatalf("stored %+v, want points 0 and 2", got)
	}
}

// TestAppendBatchSkipsUnencodable: a record json.Marshal refuses (an
// unconstrained design's +Inf WNS) costs that record alone — the rest of
// its batch is stored, the skip is counted, and the error names it.
func TestAppendBatchSkipsUnencodable(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.Get("warehouse.unencodable")
	err = w.AppendBatch([]Record{
		rec("c", 0, "sta", map[string]float64{"wns": -3}),
		rec("c", 1, "sta", map[string]float64{"wns": math.Inf(1)}),
		rec("c", 2, "sta", map[string]float64{"wns": 5}),
	})
	if err == nil || !strings.Contains(err.Error(), "c/1/sta") {
		t.Fatalf("AppendBatch err = %v, want one naming c/1/sta", err)
	}
	if n := metrics.Get("warehouse.unencodable") - before; n != 1 {
		t.Fatalf("warehouse.unencodable moved by %d, want 1", n)
	}
	if st := w.Stats(); st.Records != 2 || st.Deduped != 0 {
		t.Fatalf("stats %+v, want 2 records and nothing deduped", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got := w.Select(Query{Campaign: "c"})
	if len(got) != 2 || got[0].Point != 0 || got[1].Point != 2 {
		t.Fatalf("replayed %+v, want points 0 and 2", got)
	}
}
