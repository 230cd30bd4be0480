package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

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
	srv, base := startServer(t)

	tr := trace.New(0)
	srv.Trace = tr
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
	srv, base := startServer(t)

	// No tracer at all: valid JSON, enabled=false.
	srv.Trace = nil
	if trace.Active() == nil {
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
	}

	tr := trace.New(0)
	srv.Trace = tr
	pctx, parent := tr.StartOn(context.Background(), "server.test.parent") // stays live
	for i := 0; i < 5; i++ {
		_, sp := tr.StartOn(pctx, fmt.Sprintf("server.test.child%d", i))
		sp.Set("k", "v")
		sp.End()
	}

	code, _, body := get(t, base+"/debug/spans")
	if code != http.StatusOK {
		t.Fatalf("/debug/spans: status %d", code)
	}
	var resp struct {
		Enabled bool `json:"enabled"`
		Live    []struct {
			ID   uint64  `json:"id"`
			Name string  `json:"name"`
			Age  float64 `json:"age_us"`
		} `json:"live"`
		Done []struct {
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
	if len(resp.Live) != 1 || resp.Live[0].Name != "server.test.parent" {
		t.Fatalf("live spans = %+v, want the one in-flight parent", resp.Live)
	}
	if len(resp.Done) != 5 {
		t.Fatalf("done spans = %d, want 5", len(resp.Done))
	}
	for _, d := range resp.Done {
		if d.Parent != resp.Live[0].ID {
			t.Errorf("span %s parent %d, want %d", d.Name, d.Parent, resp.Live[0].ID)
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

// /debug/hist must stay consistent (bucket sums match counts) while
// writers are hammering the tracer.
func TestDebugHistUnderWriters(t *testing.T) {
	srv, base := startServer(t)
	tr := trace.New(0)
	srv.Trace = tr

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
