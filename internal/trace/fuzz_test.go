package trace

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzCollectorIngest posts arbitrary bodies to the span collector. No
// body panics the handler, and after a 200 the collector's Chrome export
// is valid JSON and its retained spans stay within the retention cap.
func FuzzCollectorIngest(f *testing.F) {
	one, err := json.Marshal(ShipBatch{Node: "w0", Epoch: time.Unix(1, 0), Spans: []SpanData{
		{ID: 3<<48 | 1, Name: "flow.synth", Dur: time.Millisecond, Outcome: OK, Attrs: []Attr{{Key: "node", Val: "w0"}}},
		{ID: 3<<48 | 2, Parent: 3<<48 | 1, Name: "route.iter", Start: time.Microsecond, Dur: -1},
	}})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(one), "{}", "null", "", "[", "\xff",
		`{"Spans":[{"ID":1,"Parent":1}]}`,                     // a span that is its own parent
		`{"Spans":[{"ID":1,"Parent":2},{"ID":2,"Parent":1}]}`, // a parent cycle
		`{"Epoch":"9999-12-31T23:59:59Z","Spans":[{"ID":7,"Start":9223372036854775807}]}`,
		"{\"Spans\":[{\"Name\":\"\xff\",\"Attrs\":[{\"Key\":\"\",\"Val\":\"\\u0000\"}]}]}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		tr := NewCfg(Config{Retention: shardCount})
		rw := httptest.NewRecorder()
		NewCollectorHandler(tr).ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/spans", bytes.NewReader(body)))
		switch rw.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			return
		default:
			t.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
		if n := tr.Len(); n > shardCount {
			t.Fatalf("collector retains %d spans, cap %d", n, shardCount)
		}
		var out bytes.Buffer
		if err := tr.WriteChromeTrace(&out); err != nil {
			t.Fatalf("chrome export: %v", err)
		}
		if !json.Valid(out.Bytes()) {
			t.Fatalf("chrome export is not JSON:\n%s", out.Bytes())
		}
	})
}
