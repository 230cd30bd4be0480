package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + addr
}

func TestMetricsEndpointExposesCountersAndHistograms(t *testing.T) {
	_, base := startServer(t)

	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()
	_, sp := tr.StartOn(context.Background(), "unit.test.op")
	sp.End()
	Add("unit.test.counter", 1)

	code, ctype, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	for _, want := range []string{"unit.test.counter ", "unit.test.op count=1 "} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestDebugSpansEndpoint(t *testing.T) {
	_, base := startServer(t)

	// No tracer at all: valid JSON, enabled=false.
	trace.Disable()
	code, ctype, body := get(t, base+"/debug/spans")
	if code != http.StatusOK {
		t.Fatalf("/debug/spans (off): status %d", code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/debug/spans content type %q", ctype)
	}
	var off struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal([]byte(body), &off); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if off.Enabled {
		t.Fatal("enabled=true with no tracer")
	}

	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()
	pctx, parent := tr.StartOn(context.Background(), "server.test.parent") // never listed: it has not ended
	for i := 0; i < 5; i++ {
		_, sp := tr.StartOn(pctx, fmt.Sprintf("server.test.child%d", i))
		sp.Set("k", "v")
		sp.End()
	}

	code, _, body = get(t, base+"/debug/spans")
	if code != http.StatusOK {
		t.Fatalf("/debug/spans: status %d", code)
	}
	var resp struct {
		Enabled bool `json:"enabled"`
		Done    []struct {
			Parent  uint64            `json:"parent"`
			Name    string            `json:"name"`
			Outcome string            `json:"outcome"`
			Attrs   map[string]string `json:"attrs"`
		} `json:"done"`
		Dropped int64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if !resp.Enabled {
		t.Fatal("enabled=false with armed tracer")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &keys); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if _, ok := keys["live"]; ok {
		t.Fatalf("body has a live key: %s", body)
	}
	if len(resp.Done) != 5 {
		t.Fatalf("done spans = %d, want 5", len(resp.Done))
	}
	for _, d := range resp.Done {
		if d.Parent != parent.ID() {
			t.Errorf("span %s parent %d, want %d", d.Name, d.Parent, parent.ID())
		}
		if d.Outcome != "ok" || d.Attrs["k"] != "v" {
			t.Errorf("span %s outcome/attrs wrong: %+v", d.Name, d)
		}
	}

	// ?n= trims to the most recent finished spans and counts the rest
	// as dropped-from-view.
	code, _, body = get(t, base+"/debug/spans?n=2")
	if code != http.StatusOK {
		t.Fatalf("/debug/spans?n=2: status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Done) != 2 || resp.Dropped != 3 {
		t.Fatalf("n=2: done=%d dropped=%d, want 2/3", len(resp.Done), resp.Dropped)
	}
	parent.End()
}

// TestDebugSpansServesLastFinished: ?n= serves the n spans that finished
// last, sorted by start, in a ring that is still filling and in one that
// has wrapped; spans start in one order and finish in another, so the n
// started last are not the answer.
func TestDebugSpansServesLastFinished(t *testing.T) {
	_, base := startServer(t)
	const ring, n = 8, 3
	tr := trace.New(ring)
	var now time.Duration
	tr.SetClock(func() time.Duration { return now })
	trace.Enable(tr)
	defer trace.Disable()
	spans := make([]*trace.Span, 20)
	for i := range spans {
		now = time.Duration(i) * time.Microsecond
		_, spans[i] = tr.StartOn(context.Background(), fmt.Sprintf("s%02d", i))
	}
	// Finish in blocks of four, each block in reverse start order.
	var finished []string
	for i := range spans {
		j := i - i%4 + 3 - i%4
		now = time.Duration(100+i) * time.Microsecond
		spans[j].End()
		finished = append(finished, fmt.Sprintf("s%02d", j))
		// 6 spans: a ring still filling; 17: a wrapped one whose newest
		// three straddle its end; 20: a wrapped one whose newest three
		// do not.
		if i+1 != 6 && i+1 != 17 && i+1 != 20 {
			continue
		}
		var resp struct {
			Done []struct {
				Name    string  `json:"name"`
				StartUs float64 `json:"start_us"`
			} `json:"done"`
			Dropped int64 `json:"dropped"`
		}
		_, _, body := get(t, fmt.Sprintf("%s/debug/spans?n=%d", base, n))
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, body)
		}
		want := slices.Clone(finished[len(finished)-n:])
		slices.Sort(want) // names sort as their starts do
		var got []string
		for k, d := range resp.Done {
			got = append(got, d.Name)
			if k > 0 && d.StartUs < resp.Done[k-1].StartUs {
				t.Fatalf("after %d spans: served out of start order: %+v", i+1, resp.Done)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("after %d spans finished %v: served %v, want the last %d finished %v", i+1, finished, got, n, want)
		}
		if wantDropped := int64(i + 1 - n); resp.Dropped != wantDropped {
			t.Fatalf("after %d spans: dropped %d, want %d", i+1, resp.Dropped, wantDropped)
		}
	}
	// An n far beyond the ring serves what the ring holds, and allocates
	// no more than that.
	var resp struct {
		Done []struct {
			Name string `json:"name"`
		} `json:"done"`
		Dropped int64 `json:"dropped"`
	}
	_, _, body := get(t, base+"/debug/spans?n=1000000000000")
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	var got []string
	for _, d := range resp.Done {
		got = append(got, d.Name)
	}
	want := slices.Clone(finished[len(finished)-ring:])
	slices.Sort(want)
	if !slices.Equal(got, want) || resp.Dropped != int64(len(spans)-ring) {
		t.Fatalf("n=1e12: served %v, dropped %d; want %v, dropped %d", got, resp.Dropped, want, len(spans)-ring)
	}
}

// /debug/hist must stay consistent (bucket sums match counts) while
// writers are hammering the tracer.
func TestDebugHistUnderWriters(t *testing.T) {
	_, base := startServer(t)
	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, sp := tr.StartOn(context.Background(), "server.test.load")
					sp.End()
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		code, ctype, body := get(t, base+"/debug/hist")
		if code != http.StatusOK {
			t.Fatalf("/debug/hist: status %d", code)
		}
		if !strings.HasPrefix(ctype, "text/plain") {
			t.Fatalf("/debug/hist content type %q", ctype)
		}
		if i > 5 && !strings.Contains(body, "server.test.load") {
			t.Errorf("iter %d: histogram line missing:\n%s", i, body)
		}
	}
	close(stop)
	wg.Wait()

	for _, h := range tr.Histograms().Snapshots() {
		var sum int64
		for _, b := range h.Buckets {
			sum += b.Count
		}
		if sum != h.Count {
			t.Errorf("%s: bucket sum %d != count %d", h.Name, sum, h.Count)
		}
	}
}

func TestDebugPprofEndpoint(t *testing.T) {
	_, base := startServer(t)
	code, _, body := get(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/: status %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index missing profiles list:\n%.200s", body)
	}
	code, _, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: status %d", code)
	}
}
