package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		// Varying sizes, including empty and multi-hundred-byte records,
		// so torn-write cut points land in every field of the framing.
		out[i] = bytes.Repeat([]byte{byte('a' + i%26)}, (i*37)%211)
	}
	return out
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func appendAll(t *testing.T, l *Log, recs [][]byte) {
	t.Helper()
	for i, p := range recs {
		if err := l.Append(p); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

func assertRecords(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(25)
	l := mustOpen(t, dir, Options{})
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	assertRecords(t, l2.Records(), recs)
	if st := l2.Stats(); st.TornTails != 0 || st.Records != len(recs) {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(40)
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 256, Sync: SyncNever})
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected >= 3 segments at 256-byte rotation, got %d", len(names))
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	assertRecords(t, l2.Records(), recs)
}

func TestExplicitRotateMidStream(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(10)
	l := mustOpen(t, dir, Options{})
	appendAll(t, l, recs[:5])
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, recs[5:])
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	assertRecords(t, l2.Records(), recs)
}

// segmentImages returns the byte images of every segment, in order.
func segmentImages(t *testing.T, dir string) [][]byte {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestKillAtEveryByteBoundary is the crash-injection harness of the
// tentpole: a process kill can truncate the segment file at any byte.
// For every prefix length of a real journal image, recovery must (a)
// yield exactly the records whose frames fit entirely inside the
// prefix, (b) never error, and (c) leave the journal appendable, with
// the post-crash append surviving a further clean reopen.
func TestKillAtEveryByteBoundary(t *testing.T) {
	srcDir := t.TempDir()
	recs := payloads(8)
	l := mustOpen(t, srcDir, Options{Sync: SyncNever})
	appendAll(t, l, recs)
	l.Close()
	img := segmentImages(t, srcDir)[0]

	// Expected record count at a given prefix length.
	expectAt := func(cut int) int {
		got, _, ok := scanImage(img[:cut])
		if !ok {
			return 0
		}
		return len(got)
	}

	for cut := 0; cut <= len(img); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lr, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open failed: %v", cut, err)
		}
		want := expectAt(cut)
		if len(lr.Records()) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(lr.Records()), want)
		}
		assertRecords(t, lr.Records(), recs[:want])
		// The recovered journal must accept new records.
		extra := []byte("post-crash")
		if err := lr.Append(extra); err != nil {
			t.Fatalf("cut %d: post-recovery append: %v", cut, err)
		}
		lr.Close()
		lr2 := mustOpen(t, dir, Options{})
		assertRecords(t, lr2.Records(), append(append([][]byte{}, recs[:want]...), extra))
		lr2.Close()
	}
}

// TestCorruptTailBitFlip flips each byte of the final record in turn;
// recovery must drop exactly that record (CRC catches the flip) and
// keep everything before it.
func TestCorruptTailBitFlip(t *testing.T) {
	srcDir := t.TempDir()
	recs := payloads(5)
	l := mustOpen(t, srcDir, Options{Sync: SyncNever})
	appendAll(t, l, recs)
	l.Close()
	img := segmentImages(t, srcDir)[0]
	_, prevOff, _ := scanImage(img[:len(img)-1]) // offset of the final record

	for pos := prevOff; pos < len(img); pos++ {
		mut := append([]byte(nil), img...)
		mut[pos] ^= 0x5a
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		lr, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("flip at %d: Open failed: %v", pos, err)
		}
		n := len(lr.Records())
		// A flip in the length prefix can make the frame look torn, a
		// flip in CRC or payload fails the checksum; either way at most
		// the final record is lost and no prior record is damaged.
		if n < len(recs)-1 || n > len(recs) {
			t.Fatalf("flip at %d: recovered %d records, want %d or %d", pos, n, len(recs)-1, len(recs))
		}
		assertRecords(t, lr.Records(), recs[:n])
		lr.Close()
	}
}

// TestTornWriteRepairedInProcess injects a short write: the append
// fails, but the log rolls back to the record boundary and stays
// usable — no torn bytes reach later readers.
func TestTornWriteRepairedInProcess(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(6)
	l := mustOpen(t, dir, Options{})
	appendAll(t, l, recs[:3])

	for short := 0; short < 12; short++ {
		cut := short
		l.injectWrite = func(f *os.File, b []byte) (int, error) {
			if cut > len(b) {
				cut = len(b)
			}
			n, _ := f.Write(b[:cut])
			return n, fmt.Errorf("injected torn write after %d bytes", n)
		}
		if err := l.Append([]byte("doomed")); err == nil {
			t.Fatalf("short=%d: injected write did not surface an error", short)
		}
		l.injectWrite = nil
	}
	// The log repaired itself: later appends and reopen see a clean run.
	appendAll(t, l, recs[3:])
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	assertRecords(t, l2.Records(), recs)
	if st := l2.Stats(); st.TornTails != 0 {
		t.Fatalf("repaired log still shows torn tails: %+v", st)
	}
}

func TestSyncFaultSurfaces(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Sync: SyncAlways})
	l.injectSync = func() error { return errors.New("injected sync fault") }
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("append with failing fsync must report the error")
	}
	l.injectSync = nil
	if err := l.Append([]byte("y")); err != nil {
		t.Fatalf("append after sync recovery: %v", err)
	}
	l.Close()
	// Both records hit the file (only the fsync failed).
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	assertRecords(t, l2.Records(), [][]byte{[]byte("x"), []byte("y")})
}

func TestSyncPolicies(t *testing.T) {
	for _, opts := range []Options{
		{Sync: SyncAlways},
		{Sync: SyncNever},
	} {
		dir := t.TempDir()
		recs := payloads(7)
		l := mustOpen(t, dir, opts)
		appendAll(t, l, recs)
		l.Close()
		l2 := mustOpen(t, dir, Options{})
		assertRecords(t, l2.Records(), recs)
		l2.Close()
	}
}

func TestGarbageSegmentResets(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open on garbage segment: %v", err)
	}
	if len(l.Records()) != 0 {
		t.Fatalf("garbage segment yielded %d records", len(l.Records()))
	}
	if st := l.Stats(); st.TornTails != 1 {
		t.Fatalf("expected 1 torn tail, got %+v", st)
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	assertRecords(t, l2.Records(), [][]byte{[]byte("fresh")})
}

func TestLeftoverTempSegmentIgnored(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A crash mid-rotation leaves a temp file; it must be invisible.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002.wal.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	assertRecords(t, l2.Records(), [][]byte{[]byte("kept")})
}

func TestClosedLogRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	l.Close()
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync on closed log: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close()
	big := make([]byte, MaxRecordBytes+1)
	if err := l.Append(big); err == nil {
		t.Fatal("oversize record must be rejected")
	}
	if err := l.Append([]byte("small")); err != nil {
		t.Fatalf("log unusable after oversize rejection: %v", err)
	}
}

// TestAppendBatchTornTailRecoversWholeFrames: a kill at any byte of a
// batch's single write leaves a tail that recovers to the records before
// the batch plus a prefix of the batch's whole frames — never part of a
// record, never a record after a gap.
func TestAppendBatchTornTailRecoversWholeFrames(t *testing.T) {
	srcDir := t.TempDir()
	recs := payloads(6)
	l := mustOpen(t, srcDir, Options{Sync: SyncNever})
	appendAll(t, l, recs[:2])
	if err := l.AppendBatch(recs[2:]); err != nil {
		t.Fatal(err)
	}
	l.Close()
	img := segmentImages(t, srcDir)[0]
	batchStart := segHeaderLen
	for _, p := range recs[:2] {
		batchStart += recHeaderLen + len(p)
	}
	for cut := batchStart; cut <= len(img); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lr := mustOpen(t, dir, Options{})
		whole, off := 0, batchStart
		for _, p := range recs[2:] {
			if off += recHeaderLen + len(p); off > cut {
				break
			}
			whole++
		}
		assertRecords(t, lr.Records(), recs[:2+whole])
		lr.Close()
	}
}

// TestAppendBatchSyncFaultAcknowledgesNone: the one fsync of a batch is
// its acknowledgement; when it fails the call reports the error for the
// whole batch, and the log stays usable.
func TestAppendBatchSyncFaultAcknowledgesNone(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Sync: SyncAlways})
	syncs := 0
	l.injectSync = func() error {
		syncs++
		return errors.New("injected sync fault")
	}
	if err := l.AppendBatch(payloads(5)); err == nil {
		t.Fatal("batch with failing fsync must report the error")
	}
	if syncs != 1 {
		t.Fatalf("batch of 5 issued %d fsyncs, want 1", syncs)
	}
	l.injectSync = func() error { syncs++; return nil }
	if err := l.AppendBatch(payloads(5)); err != nil {
		t.Fatalf("batch after sync recovery: %v", err)
	}
	if syncs != 2 {
		t.Fatalf("second batch of 5 issued %d fsyncs, want 1", syncs-1)
	}
	l.Close()
}

// TestAppendBatchTornWriteRollsBackWholeBatch: a short write mid-batch
// truncates back to the boundary before the batch, not to a frame
// inside it — an unacknowledged batch leaves nothing behind in a live
// process.
func TestAppendBatchTornWriteRollsBackWholeBatch(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(7)
	l := mustOpen(t, dir, Options{})
	appendAll(t, l, recs[:2])
	l.injectWrite = func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2]) // past the first frames of the batch
		return n, errors.New("injected torn write")
	}
	if err := l.AppendBatch(recs[2:]); err == nil {
		t.Fatal("injected write did not surface an error")
	}
	l.injectWrite = nil
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	assertRecords(t, l2.Records(), recs[:2])
	if st := l2.Stats(); st.TornTails != 0 {
		t.Fatalf("rolled-back batch left a torn tail: %+v", st)
	}
}

// TestAppendBatchNeverStraddlesRotation: a batch that does not fit the
// active segment rotates first and lands whole in the next one — even a
// batch larger than a segment.
func TestAppendBatchNeverStraddlesRotation(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(30)
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 512, Sync: SyncNever})
	var batches [][][]byte
	for at := 0; at < len(recs); {
		n := 1 + at%7
		if at+n > len(recs) {
			n = len(recs) - at
		}
		batches = append(batches, recs[at:at+n])
		if err := l.AppendBatch(recs[at : at+n]); err != nil {
			t.Fatal(err)
		}
		at += n
	}
	l.Close()
	images := segmentImages(t, dir)
	if len(images) < 3 {
		t.Fatalf("expected >= 3 segments at 512-byte rotation, got %d", len(images))
	}
	// Every segment holds a whole number of batches, in order.
	b := 0
	for i, img := range images {
		got, _, ok := scanImage(img)
		if !ok {
			t.Fatalf("segment %d: bad header", i)
		}
		for len(got) > 0 {
			if b == len(batches) || len(got) < len(batches[b]) {
				t.Fatalf("segment %d ends inside batch %d", i, b)
			}
			assertRecords(t, got[:len(batches[b])], batches[b])
			got = got[len(batches[b]):]
			b++
		}
	}
	if b != len(batches) {
		t.Fatalf("recovered %d of %d batches", b, len(batches))
	}
}
