package campaign

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/journal"
)

// TestEntryCodecRoundTrip: the exported codec is the journal's wire
// format — an encoded entry must decode back to the identical record,
// and structurally empty or garbage inputs must be rejected, not
// half-decoded.
func TestEntryCodecRoundTrip(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 1, 1)
	res, err := New(Config{Workers: 1}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	in := Entry{
		Key:   pts[0].CacheKey(),
		Res:   res[0],
		Steps: []flow.StepRecord{{Step: "synth"}},
	}
	data, err := EncodeEntry(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Key != in.Key || out.Res == nil || len(out.Steps) != 1 {
		t.Fatalf("round trip lost data: %+v", out)
	}
	if out.Res.AreaUm2 != in.Res.AreaUm2 || out.Res.WNSPs != in.Res.WNSPs {
		t.Fatalf("round trip drifted QoR: %v vs %v", out.Res, in.Res)
	}
	if _, err := DecodeEntry([]byte("not gob")); err == nil {
		t.Fatal("garbage decoded without error")
	}
	empty, err := EncodeEntry(Entry{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntry(empty); err == nil {
		t.Fatal("structurally empty entry decoded without error")
	}
}

// TestJournalRecordAfterClose: a Store that arrives after Close must
// not reach the log AND must be surfaced via Err — a caller that requires
// durability has to find out the journal is missing points — while the
// entry still serves from memory.
func TestJournalRecordAfterClose(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 1, 1)
	res, err := New(Config{Workers: 1}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	jrn := openJournal(t, filepath.Join(t.TempDir(), "journal"))
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	jrn.Store(Entry{Key: pts[0].CacheKey(), Res: res[0]})
	if jerr := jrn.Err(); !errors.Is(jerr, journal.ErrClosed) {
		t.Fatalf("Err = %v, want wrapped journal.ErrClosed", jerr)
	}
	if e, ok := jrn.Load(pts[0].CacheKey()); !ok || e.Res == nil || e.Res.Netlist != nil {
		t.Fatalf("entry stored after Close not served as its summary: ok=%t", ok)
	}
	if st := jrn.ResumeStats(); st != (ResumeStats{}) {
		t.Fatalf("an entry stored by this process counted as resumed: %+v", st)
	}
}

// TestJournalDoubleClose: closing twice is safe and idempotent — the
// second call returns the first close's outcome without touching the
// log again.
func TestJournalDoubleClose(t *testing.T) {
	jrn := openJournal(t, filepath.Join(t.TempDir(), "journal"))
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestJournalRecordAfterFailStaysSticky: after one append failure the
// first error must stay the surfaced one while later records still try
// (and in this torn-down journal, fail) without panicking or masking it.
func TestJournalRecordAfterFailStaysSticky(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 1, 2)
	res, err := New(Config{Workers: 1}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	jrn := openJournal(t, filepath.Join(t.TempDir(), "journal"))
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	jrn.Store(Entry{Key: pts[0].CacheKey(), Res: res[0]})
	first := jrn.Err()
	if first == nil {
		t.Fatal("first failure not surfaced")
	}
	jrn.Store(Entry{Key: pts[1].CacheKey(), Res: res[1]})
	if jrn.Err() != first {
		t.Fatalf("later failure replaced the sticky error: %v", jrn.Err())
	}
}

// TestJournalCloseRacesInFlightAppends: Close fired concurrently with a
// storm of record calls must neither panic nor corrupt the log: every
// append either landed durably before the close or is surfaced via Err,
// and the journal on disk decodes cleanly.
func TestJournalCloseRacesInFlightAppends(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 3, 4)
	res, err := New(Config{Workers: 4}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	jrn := openJournal(t, dir)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range pts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			jrn.Store(Entry{Key: pts[i].CacheKey(), Res: res[i]})
		}(i)
	}
	wg.Add(1)
	var closeErr error
	go func() {
		defer wg.Done()
		<-start
		closeErr = jrn.Close()
	}()
	close(start)
	wg.Wait()
	if closeErr != nil {
		t.Fatalf("racing Close = %v", closeErr)
	}
	if err := jrn.Close(); err != nil {
		t.Fatalf("post-race Close = %v", err)
	}

	// Reopen: every record that made it in must decode; appends that
	// lost the race to Close must have been surfaced, not silently gone.
	keys, corrupt := journalKeys(t, dir)
	if corrupt != 0 {
		t.Fatalf("%d corrupt records after close race", corrupt)
	}
	if len(keys)+0 > len(pts) {
		t.Fatalf("journal holds %d records for %d points", len(keys), len(pts))
	}
	if len(keys) < len(pts) && jrn.Err() == nil {
		t.Fatalf("journal holds %d of %d points but Err is nil", len(keys), len(pts))
	}
}
