package warehouse

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
