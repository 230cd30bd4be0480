package warehouse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
)

// TestReplayParentWrittenWAL: format compatibility is a test, not a
// promise. testdata/wal_parent is a WAL written by the commit before the
// replay scanner existed: records in json.Marshal's shape, records only
// json.Unmarshal reads (an escaped string, a non-ASCII name, an older
// field order with whitespace, a field set without Corner and Outcome),
// a duplicated scalar name, a duplicate record and one CRC-valid payload
// that is not a Record. wal_parent.golden holds what that commit's Open
// made of it: Stats, the canonical dump and every record as JSON.
func TestReplayParentWrittenWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("testdata", "wal_parent")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st := w.Stats()
	var got bytes.Buffer
	fmt.Fprintf(&got, "stats records=%d replayed=%d deduped=%d corrupt=%d torn=%d\n", st.Records, st.Replayed, st.Deduped, st.Corrupt, st.Torn)
	w.DumpCanonical(&got, "fixture")
	for _, r := range w.Select(Query{}) {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}
	want, err := os.ReadFile(filepath.Join("testdata", "wal_parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("replay of the parent-written WAL differs:\n--- got\n%s--- want\n%s", &got, want)
	}
}

// resumeShapedWAL writes the WAL a durable_resume campaign leaves: 48
// points × 6 stages of pulpino-proxy records, two points in flight at a
// time as two workers interleave them, shipped in the emitter's batches.
func resumeShapedWAL(t *testing.T) (dir string, records int) {
	dir = t.TempDir()
	w, err := Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stages := []struct {
		name    string
		scalars []string
	}{
		{"synth", []string{"area", "buffers", "cells", "upsized", "wns"}},
		{"place", []string{"hpwl", "initial_hpwl", "width"}},
		{"cts", []string{"buffers", "latency", "skew"}},
		{"groute", []string{"hotspots", "margin", "overflow", "overflowPeak", "wirelength"}},
		{"droute", []string{"drvs", "iterations"}},
		{"sta", []string{"area", "leakage", "power", "tns", "wns"}},
	}
	const points = 48
	var batch []Record
	for p := 0; p < points; p += 2 {
		for _, st := range stages {
			for _, pt := range []int{p, p + 1} {
				sc := make(map[string]float64, len(st.scalars))
				for i, name := range st.scalars {
					sc[name] = 1234.567890123 * float64(pt+1) / float64(i+3)
				}
				freq := []float64{0.4, 0.5, 0.6}[pt%3]
				batch = append(batch, Record{
					Campaign: "b92099cfe6ae7677", Point: pt, Stage: st.name, Node: "local", Corner: "typ",
					Key:    fmt.Sprintf("f=%g seed=%d se=2 mf=0 u=0 pm=60 part=0 tpe=0 re=0 ri=0 dr=0 stop=0 rec=false rm=0 pw=0 rt=0 spec=false stol=0", freq, 8+pt/3),
					Design: "pulpino-proxy", Seed: int64(8 + pt/3), FreqGHz: freq, Outcome: "ok", Scalars: sc, Unix: 1792207076,
				})
				if len(batch) == flushBatch {
					if err := w.AppendBatch(batch); err != nil {
						t.Fatal(err)
					}
					batch = nil
				}
			}
		}
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, points * len(stages)
}

// TestReplayAllocs: reopening a durable_resume-shaped warehouse costs at
// most maxReplayAllocsPerRecord allocations a record, the whole Open
// amortised over its records: 4.53 with the replay scanner. Its parent,
// which decoded every payload with json.Unmarshal, made 27.9 a record; a
// return to reflective decode, or to a fresh string per field, fails
// here.
func TestReplayAllocs(t *testing.T) {
	const maxReplayAllocsPerRecord = 4.9
	dir, records := resumeShapedWAL(t)
	allocs := testing.AllocsPerRun(5, func() {
		w, err := Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Replayed != records || st.Corrupt != 0 {
			t.Fatalf("replay stats %+v, want %d replayed", st, records)
		}
		w.Close()
	})
	perRecord := allocs / float64(records)
	t.Logf("%.0f allocations per Open, %.2f a record", allocs, perRecord)
	if perRecord > maxReplayAllocsPerRecord {
		t.Fatalf("Open allocates %.2f objects a record, want ≤ %g", perRecord, maxReplayAllocsPerRecord)
	}
}

// TestScanAcceptsMarshalShape: the shortcut is taken for what json.Marshal
// writes — else replay silently pays for reflection again — and only
// when the bytes need no unescaping.
func TestScanAcceptsMarshalShape(t *testing.T) {
	for _, tc := range []struct {
		r    Record
		scan bool
	}{
		{rec("c", 0, "synth", nil), true},
		{rec("c", 1, "place", map[string]float64{}), true},
		{rec("c", 2, "sta", map[string]float64{"tiny": 1e-7, "huge": 1e21, "negzero": math.Copysign(0, -1)}), true},
		{Record{Campaign: "c", Key: "a<b&c>"}, false},
		{Record{Campaign: "c", Scalars: map[string]float64{"ω": 1}}, false},
	} {
		b, err := json.Marshal(tc.r)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := new(replayDecoder).scan(b)
		if ok != tc.scan {
			t.Fatalf("scan(%s) ok = %v, want %v", b, ok, tc.scan)
		}
		if ok && !sameRecord(got, tc.r) {
			t.Fatalf("scan(%s) = %+v, want %+v", b, got, tc.r)
		}
	}
}
