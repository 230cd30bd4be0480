package warehouse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/journal"
)

// FuzzIngest posts arbitrary bodies to the ingest endpoint of a
// memory-only warehouse. No body panics the handler, and a 200 reports
// exactly the number of records the body decodes to, every one of which
// the store then holds under its dedupe key.
func FuzzIngest(f *testing.F) {
	one, err := json.Marshal([]Record{rec("c", 1, "synth", map[string]float64{"wns": -3})})
	if err != nil {
		f.Fatal(err)
	}
	dups, err := json.Marshal([]Record{rec("c", 1, "synth", nil), rec("c", 1, "synth", nil), rec("c", 2, "place", nil)})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(one), string(dups), "[]", "null", "", "{}", "[{}]", "[null]",
		`[{"Point":"x"}]`, `[{"Scalars":{"a":1e400}}]`, `[{"Scalars":null,"Point":-1}]`, "[1,2", "\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w, err := Open("", journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rw := httptest.NewRecorder()
		NewHandler(w).ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/records", strings.NewReader(string(body))))
		var recs []Record
		decodeErr := json.Unmarshal(body, &recs)
		switch rw.Code {
		case http.StatusOK:
			if decodeErr != nil {
				t.Fatalf("200 for a body that does not decode: %v", decodeErr)
			}
			if got, want := rw.Body.String(), fmt.Sprintf("{\"ingested\":%d}\n", len(recs)); got != want {
				t.Fatalf("200 body %q, want %q", got, want)
			}
			for _, r := range recs {
				if _, ok := w.recs.Get(r.dedupeKey()); !ok {
					t.Fatalf("record %q ingested but not stored", r.dedupeKey())
				}
			}
		case http.StatusBadRequest:
			if decodeErr == nil {
				t.Fatalf("400 for a body that decodes to %d records: %s", len(recs), rw.Body.String())
			}
		default:
			t.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
	})
}

// FuzzDecodeRecord: the replay decoder is json.Unmarshal, only faster.
// For any payload it returns the Record json.Unmarshal returns, and errs
// exactly when json.Unmarshal does — on a fresh decoder and again on one
// that has just decoded the same payload, whose interned strings are then
// in play. Whatever the scanner itself accepts, json.Unmarshal accepts as
// the same Record.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range []Record{
		rec("c", 0, "synth", nil),
		rec("c", 1, "place", map[string]float64{}),
		rec("b92099cfe6ae7677", 47, "groute", map[string]float64{"hotspots": 0.3740942028985507, "overflow": 2192, "wirelength": 28021.160819575045}),
		{Campaign: "<&>", Point: -3, Stage: "sta", Key: "f=0.4 seed=10 ω", Design: "Ünïcode", Seed: -9, FreqGHz: -0.0,
			Scalars: map[string]float64{"tiny": 1e-7, "small": 9.99e-7, "huge": 1e21, "big": 1.5e300, "negzero": math.Copysign(0, -1), "min": 5e-324}},
		{Seed: math.MaxInt64, Unix: math.MinInt64, FreqGHz: 1e21},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])                                   // truncated
		f.Add(bytes.Replace(b, []byte(":"), []byte(": "), 1)) // whitespace
		f.Add(append(b, ' '))
	}
	for _, seed := range []string{
		`{"Point":3,"Campaign":"c","Stage":"synth","Node":"","Corner":"","Key":"","Design":"","Seed":0,"FreqGHz":0,"Outcome":"","Scalars":null,"Unix":0}`,
		`{"Campaign":"c","Point":1,"Stage":"s","Node":"","Corner":"","Key":"","Design":"","Seed":0,"FreqGHz":0,"Outcome":"","Scalars":{"a":1,"a":2},"Unix":0}`,
		`{"Campaign":"c","Point":1.5,"Stage":"s","Node":"","Corner":"","Key":"","Design":"","Seed":0,"FreqGHz":0,"Outcome":"","Scalars":null,"Unix":0}`,
		`{"Campaign":"c","Point":1,"Stage":"s","Node":"","Corner":"","Key":"","Design":"","Seed":0,"FreqGHz":1e400,"Outcome":"","Scalars":{"a":null},"Unix":0}`,
		`{"campaign":"c","Point":01,"Stage":"s\n"}`, `["not","a","record"]`, `null`, `{}`, "",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var want Record
		wantErr := json.Unmarshal(payload, &want)
		var dec replayDecoder
		for pass := 0; pass < 2; pass++ {
			got, err := dec.decodeRecord(payload)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("pass %d: decodeRecord err %v, json.Unmarshal err %v", pass, err, wantErr)
			}
			if !sameRecord(got, want) {
				t.Fatalf("pass %d: decodeRecord %+v, json.Unmarshal %+v", pass, got, want)
			}
		}
		if got, ok := new(replayDecoder).scan(payload); ok {
			if wantErr != nil || !sameRecord(got, want) {
				t.Fatalf("scanner accepted %+v, json.Unmarshal %+v, %v", got, want, wantErr)
			}
		}
	})
}

// sameRecord is reflect.DeepEqual, which also tells a nil map from an
// empty one, plus equal JSON, which also tells -0 from 0.
func sameRecord(a, b Record) bool {
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return reflect.DeepEqual(a, b) && erra == nil && errb == nil && bytes.Equal(ja, jb)
}
