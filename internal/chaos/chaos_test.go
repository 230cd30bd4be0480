package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// doVia sends one request through an engine-wrapped transport.
func doVia(t *testing.T, eng *Engine, source, target, url string, body []byte) (*http.Response, error) {
	t.Helper()
	rt := eng.Transport(source, nil)
	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method = http.MethodPut
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TargetHeader, target)
	req.Header.Set(OpHeader, "test")
	return rt.RoundTrip(req)
}

// faultSequence replays n attempts on one edge and records which fault
// (if any) each attempt drew.
func faultSequence(t *testing.T, cfg Config, n int, url string) []string {
	t.Helper()
	eng := New(cfg)
	var seq []string
	for i := 0; i < n; i++ {
		resp, err := doVia(t, eng, "src", "dst", url, nil)
		switch {
		case err != nil:
			var ce *Error
			if !errors.As(err, &ce) {
				t.Fatalf("attempt %d: non-chaos error %v", i, err)
			}
			seq = append(seq, ce.Kind)
		case resp.StatusCode == http.StatusServiceUnavailable:
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			seq = append(seq, "fail")
		default:
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			seq = append(seq, "ok")
		}
	}
	return seq
}

// TestCoinScheduleDeterministic: same seed, same edge -> identical
// fault sequence; different seed -> a different one.
func TestCoinScheduleDeterministic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok") //nolint:errcheck
	}))
	defer srv.Close()

	cfg := Config{Seed: 7, DropRate: 0.3, FailRate: 0.3}
	a := faultSequence(t, cfg, 40, srv.URL)
	b := faultSequence(t, cfg, 40, srv.URL)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	kinds := map[string]bool{}
	for _, k := range a {
		kinds[k] = true
	}
	if !kinds["drop"] || !kinds["fail"] || !kinds["ok"] {
		t.Fatalf("40 attempts at 30%%/30%% rates drew no mix of faults: %v", a)
	}

	cfg.Seed = 8
	c := faultSequence(t, cfg, 40, srv.URL)
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Fatalf("different seeds drew identical sequences")
	}
}

// TestPartitionWindowHeals pins the partition schedule: cut inside the
// window (both directions, wildcard endpoints), healed outside it, and
// never healed when Heal <= Start.
func TestPartitionWindowHeals(t *testing.T) {
	p := Partition{A: "*", B: "w0", Start: 10 * time.Millisecond, Heal: 30 * time.Millisecond}
	cases := []struct {
		src, dst string
		at       time.Duration
		cut      bool
	}{
		{"coord", "w0", 5 * time.Millisecond, false},  // before window
		{"coord", "w0", 15 * time.Millisecond, true},  // inside
		{"w0", "store", 15 * time.Millisecond, true},  // reverse direction
		{"coord", "w1", 15 * time.Millisecond, false}, // other node
		{"coord", "w0", 35 * time.Millisecond, false}, // healed
	}
	for _, c := range cases {
		if got := p.cuts(c.src, c.dst, c.at); got != c.cut {
			t.Errorf("cuts(%s,%s,%v) = %t, want %t", c.src, c.dst, c.at, got, c.cut)
		}
	}
	forever := Partition{A: "*", B: "w0", Start: 10 * time.Millisecond}
	if !forever.cuts("coord", "w0", time.Hour) {
		t.Fatal("Heal=0 partition healed")
	}
}

// TestPartitionedTransportErrors: a cut link returns a chaos Error
// without touching the server; after heal the request goes through.
func TestPartitionedTransportErrors(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer srv.Close()

	eng := New(Config{Seed: 1, Partitions: []Partition{{A: "coord", B: "w0", Start: 0, Heal: 80 * time.Millisecond}}})
	if _, err := doVia(t, eng, "coord", "w0", srv.URL, nil); err == nil {
		t.Fatal("request crossed a cut link")
	}
	if hits.Load() != 0 {
		t.Fatal("partitioned request reached the server")
	}
	// Unrelated edges are unaffected.
	if resp, err := doVia(t, eng, "coord", "w1", srv.URL, nil); err != nil {
		t.Fatalf("unpartitioned edge failed: %v", err)
	} else {
		resp.Body.Close()
	}
	time.Sleep(90 * time.Millisecond)
	resp, err := doVia(t, eng, "coord", "w0", srv.URL, nil)
	if err != nil {
		t.Fatalf("healed link still cut: %v", err)
	}
	resp.Body.Close()
}

// TestStallRespectsCallerDeadline: a stalled request returns when the
// caller's context dies, not after the full stall.
func TestStallRespectsCallerDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()

	eng := New(Config{Seed: 1, StallRate: 1, StallFor: 10 * time.Second})
	rt := eng.Transport("src", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	if _, err := rt.RoundTrip(req); err == nil {
		t.Fatal("stalled request succeeded")
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("stall ignored the caller deadline: took %v", e)
	}
}

// TestDuplicateDelivery: DupRate=1 delivers every replayable request
// twice, same bytes each time.
func TestDuplicateDelivery(t *testing.T) {
	var bodies [][]byte
	var mu atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, b) // serialized: client sends sequentially
		mu.Add(1)
	}))
	defer srv.Close()

	eng := New(Config{Seed: 1, DupRate: 1})
	resp, err := doVia(t, eng, "src", "dst", srv.URL, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mu.Load() != 2 {
		t.Fatalf("server saw %d deliveries, want 2", mu.Load())
	}
	if string(bodies[0]) != "payload" || string(bodies[1]) != "payload" {
		t.Fatalf("duplicate bytes differ: %q vs %q", bodies[0], bodies[1])
	}
}

// TestNilEngineIsNoOp: the nil engine returns the base transport
// untouched — the pluggable-without-touching-the-happy-path contract.
func TestNilEngineIsNoOp(t *testing.T) {
	var eng *Engine
	base := http.DefaultTransport
	if got := eng.Transport("src", base); got != base {
		t.Fatal("nil engine wrapped the transport")
	}
	if eng.Partitioned("a", "b") {
		t.Fatal("nil engine reported a partition")
	}
}

// TestCloseIdleReachesServer: closing a client's idle connections closes
// them through the fault layer — the server sees the connection end.
// Otherwise a connection dialed and never used holds a server's Shutdown
// for net/http's 5 s grace on new connections.
func TestCloseIdleReachesServer(t *testing.T) {
	closed := make(chan struct{}, 1)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateClosed {
			closed <- struct{}{}
		}
	}
	srv.Start()
	defer srv.Close()
	client := &http.Client{Transport: New(Config{Seed: 1}).Transport("src", &http.Transport{})}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	client.CloseIdleConnections()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("the server never saw the client's idle connection close")
	}
}

// TestProfiles: every advertised profile builds, unknown names error.
func TestProfiles(t *testing.T) {
	for _, name := range Profiles() {
		cfg, err := Profile(name, 3)
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		if cfg.Seed != 3 {
			t.Fatalf("profile %s dropped the seed", name)
		}
	}
	if _, err := Profile("nope", 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
}
