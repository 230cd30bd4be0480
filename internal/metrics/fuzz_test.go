package metrics

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzFrontDoorSubmit posts arbitrary bodies to the campaign submission
// endpoint, four times each, against a front door with one slot and a
// queue of two. No body panics the handler, every answer is 202, 400 or
// 429, and the queue never holds more than MaxQueue campaigns.
func FuzzFrontDoorSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"t1","spec":{"design":"tiny","freq":0.5,"seeds":4}}`,
		`{"tenant":"","spec":null}`, `{}`, `null`, ``, `[]`, `"x"`,
		`{"tenant":7}`, `{"spec":`, `{"tenant":"a"}{"tenant":"b"}`, "\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fd := NewFrontDoor(newBlockingRunner(0), 1, 2)
		defer fd.Close()
		mux := http.NewServeMux()
		fd.mount(mux)
		for i := 0; i < 4; i++ {
			rw := httptest.NewRecorder()
			mux.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(body)))
			switch rw.Code {
			case http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests:
			default:
				t.Fatalf("post %d: status %d: %s", i, rw.Code, rw.Body.String())
			}
			fd.mu.Lock()
			queued := fd.queued
			fd.mu.Unlock()
			if queued > fd.MaxQueue {
				t.Fatalf("post %d: %d campaigns queued, MaxQueue %d", i, queued, fd.MaxQueue)
			}
		}
	})
}
