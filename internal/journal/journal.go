// Package journal is the crash-safe write-ahead log under everything
// durable in the repository, in two layers. Log is an append-only
// sequence of length-prefixed, CRC32C-checksummed records in rotated
// segment files. Keyed (keyed.go) is the first-wins keyed store replayed
// from a Log, and the only consumer of one: the campaign journal, the
// dist result store and the METRICS warehouse are typed views of it, so
// "first wins", "durable before visible" and "a corrupt record costs one
// recompute" are written and tested here once.
//
// The durability contract is the one a weekend-scale campaign needs
// (the paper's "launch 1000 runs" orchestration): a process kill, OOM
// or machine reboot at ANY byte boundary of a write loses at most the
// records that were never acknowledged by the configured fsync policy,
// and never corrupts the records before them. Open recovers from torn
// tails by truncating at the last valid record instead of failing, so
// a crashed campaign restarts without operator surgery.
//
// Segment rotation is atomic: a new segment is created as a temp file,
// its header is written and fsynced, and the file is renamed into place
// before any record lands in it — a crash mid-rotation leaves either
// the old tail segment or a complete empty new one, never a segment
// with a half-written header.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Record layout inside a segment, after the 8-byte segment header:
//
//	u32le payload length | u32le CRC32C(payload) | payload bytes
const (
	segMagic     = "SPRWAL1\n"
	segHeaderLen = len(segMagic)
	recHeaderLen = 8
)

// MaxRecordBytes bounds one record's payload; a length prefix above it
// is treated as corruption (it cannot be a record this package wrote).
const MaxRecordBytes = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("journal: log is closed")

// SyncPolicy selects when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append (the default: a record
	// returned from Append survives an immediate power cut).
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS; a clean process kill (SIGKILL)
	// loses nothing, a power cut may lose the OS write-back window.
	SyncNever
)

// Options parameterizes a Log.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// MaxSegmentBytes rotates to a fresh segment once the active one
	// exceeds this size (default 64 MiB).
	MaxSegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	return o
}

// RecoveryStats reports what Open found.
type RecoveryStats struct {
	Segments  int   // segment files scanned
	Records   int   // valid records recovered
	TornTails int   // segments that ended in an invalid/partial record
	TornBytes int64 // bytes discarded from torn tails
}

// Log is an open journal. All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	seq    int
	size   int64
	closed bool
	broken error // sticky: set when a failed append could not be repaired

	records [][]byte
	stats   RecoveryStats

	// Crash-injection seams (tests only): injectWrite replaces the
	// segment write, injectSync fails the next fsync.
	injectWrite func(f *os.File, b []byte) (int, error)
	injectSync  func() error
}

// Open opens (creating if necessary) the journal in dir, recovering
// from torn tails by truncating the active segment at its last valid
// record. The recovered payloads are available via Records.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	for i, name := range names {
		last := i == len(names)-1
		if err := l.recoverSegment(filepath.Join(dir, name), last); err != nil {
			return nil, err
		}
	}
	l.stats.Segments = len(names)
	l.stats.Records = len(l.records)
	if len(names) == 0 {
		if err := l.rotateLocked(); err != nil {
			return nil, err
		}
	}
	metrics.Add("journal.log.opened", 1)
	metrics.Add("journal.log.recovered", int64(l.stats.Records))
	if l.stats.TornTails > 0 {
		metrics.Add("journal.log.torn_tails", int64(l.stats.TornTails))
		metrics.Add("journal.log.torn_bytes", l.stats.TornBytes)
	}
	return l, nil
}

// segmentNames lists seg-*.wal files in ascending sequence order,
// ignoring temp files left by a crash mid-rotation.
func segmentNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: read dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", seq))
}

func segmentSeq(path string) int {
	var seq int
	fmt.Sscanf(filepath.Base(path), "seg-%08d.wal", &seq) //nolint:errcheck // malformed names yield seq 0
	return seq
}

// scanImage parses one segment image (header plus records). It returns
// the valid payloads, the offset parsing stopped at, and whether the
// header itself was valid. It never fails: invalid bytes end the scan
// at the last valid record — the recovery-by-truncation invariant.
func scanImage(data []byte) (recs [][]byte, validOff int, headerOK bool) {
	if len(data) < segHeaderLen || string(data[:segHeaderLen]) != segMagic {
		return nil, 0, false
	}
	off := segHeaderLen
	for {
		if off+recHeaderLen > len(data) {
			return recs, off, true
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > MaxRecordBytes || off+recHeaderLen+n > len(data) {
			return recs, off, true
		}
		payload := data[off+recHeaderLen : off+recHeaderLen+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off, true
		}
		recs = append(recs, append([]byte(nil), payload...))
		off += recHeaderLen + n
	}
}

// encodeRecord frames a payload for appending.
func encodeRecord(payload []byte) []byte {
	buf := make([]byte, recHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[recHeaderLen:], payload)
	return buf
}

// recoverSegment scans one segment, collecting its valid records. The
// final segment is additionally truncated at its last valid record and
// reopened for appending; earlier segments are read-only history, so a
// torn tail there is only counted.
func (l *Log) recoverSegment(path string, last bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: read segment: %w", err)
	}
	recs, validOff, headerOK := scanImage(data)
	if !headerOK {
		// Unrecognizable segment: nothing recoverable in it. For the
		// active segment, reset it to an empty valid one.
		validOff = 0
	}
	if torn := int64(len(data)) - int64(validOff); torn > 0 {
		l.stats.TornTails++
		l.stats.TornBytes += torn
	}
	l.records = append(l.records, recs...)
	if !last {
		return nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	if !headerOK {
		validOff = segHeaderLen
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(segMagic), 0)
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("journal: reset corrupt segment: %w", err)
		}
	} else if int64(validOff) < int64(len(data)) {
		if err := f.Truncate(int64(validOff)); err != nil {
			f.Close()
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(validOff), 0); err != nil {
		f.Close()
		return fmt.Errorf("journal: seek: %w", err)
	}
	l.f = f
	l.seq = segmentSeq(path)
	l.size = int64(validOff)
	return nil
}

// Records returns the payloads recovered at Open, in append order.
// Callers must not mutate the returned slices.
func (l *Log) Records() [][]byte { return l.records }

// Stats returns the recovery statistics gathered at Open.
func (l *Log) Stats() RecoveryStats { return l.stats }

// Append durably adds one record: AppendBatch of one.
func (l *Log) Append(payload []byte) error {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch durably adds several records under one sync — group
// commit. All frames go out in one write into one segment (a batch is
// never split across a rotation), and under SyncAlways the call returns
// only after the single fsync that covers them all: an error
// acknowledges none of the batch, nil acknowledges all of it. A crash
// mid-batch leaves a torn tail that recovers, frame by frame, to a
// prefix of whole records; a failed write is repaired by truncating back
// to the record boundary before the batch, so one bad append never
// poisons the records around it. Under the other policies the records
// are at least buffered in the segment file.
func (l *Log) AppendBatch(payloads [][]byte) error {
	// Detached span (there is no context under the mutex): append
	// latency includes any fsync the policy demands, so the
	// journal.append histogram is the durability cost a campaign point
	// pays, and journal.sync isolates the fsync inside it.
	sp := trace.Begin("journal.append")
	err := l.appendBatch(payloads)
	sp.EndErr(err)
	return err
}

func (l *Log) appendBatch(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.broken != nil:
		return l.broken
	case len(payloads) == 0:
		return nil
	}
	var buf []byte
	for _, p := range payloads {
		if len(p) > MaxRecordBytes {
			return fmt.Errorf("journal: record of %d bytes exceeds max %d", len(p), MaxRecordBytes)
		}
		buf = append(buf, encodeRecord(p)...)
	}
	if l.size > int64(segHeaderLen) && l.size+int64(len(buf)) > l.opts.MaxSegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	before := l.size
	n, err := l.write(buf)
	l.size += int64(n)
	if err != nil {
		// Torn write with the process still alive: roll the segment
		// back to the last record boundary so the log stays appendable.
		if terr := l.f.Truncate(before); terr == nil {
			if _, serr := l.f.Seek(before, 0); serr == nil {
				l.size = before
				metrics.Add("journal.append.repaired", 1)
				return fmt.Errorf("journal: append: %w", err)
			}
		}
		l.broken = fmt.Errorf("journal: unrepairable torn append: %w", err)
		metrics.Add("journal.append.broken", 1)
		return l.broken
	}
	metrics.Add("journal.append.ok", int64(len(payloads)))
	metrics.Add("journal.append.bytes", int64(len(buf)))
	if l.opts.Sync == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

func (l *Log) write(b []byte) (int, error) {
	if l.injectWrite != nil {
		return l.injectWrite(l.f, b)
	}
	return l.f.Write(b)
}

// Sync forces buffered appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	sp := trace.Begin("journal.sync")
	if l.injectSync != nil {
		if err := l.injectSync(); err != nil {
			sp.EndErr(err)
			return fmt.Errorf("journal: sync: %w", err)
		}
	} else if err := l.f.Sync(); err != nil {
		sp.EndErr(err)
		return fmt.Errorf("journal: sync: %w", err)
	}
	sp.End()
	metrics.Add("journal.sync.ok", 1)
	return nil
}

// rotateLocked creates segment seq+1 via temp file + rename: the new
// segment becomes visible only with a complete, fsynced header.
func (l *Log) rotateLocked() error {
	next := l.seq + 1
	final := segmentPath(l.dir, next)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: init segment: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: install segment: %w", err)
	}
	syncDir(l.dir)
	if l.f != nil {
		l.f.Sync() //nolint:errcheck // the sealed segment is already complete; best-effort
		l.f.Close()
	}
	l.f = f
	l.seq = next
	l.size = int64(segHeaderLen)
	metrics.Add("journal.segment.rotated", 1)
	return nil
}

// syncDir fsyncs a directory so a rename survives a power cut
// (best-effort: not all filesystems support directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // best-effort
		d.Close()
	}
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}
