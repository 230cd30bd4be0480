package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// fastHealth is the probe cadence the chaos tests run at: quick enough
// that suspicion, death, and rejoin all resolve inside a test's budget.
var fastHealth = HealthConfig{
	ProbeInterval:  5 * time.Millisecond,
	ProbeTimeout:   250 * time.Millisecond,
	RejoinInterval: 5 * time.Millisecond,
	probeFails:     2,
}

// chaosCluster is startCluster with per-endpoint chaos transports: each
// worker's store client and the coordinator's RPCs all route through
// one engine, tagged with their logical source names. Every worker has
// its own store client, so the cluster's shared client is nil.
func chaosCluster(t *testing.T, pts []campaign.Point, n int, eng *chaos.Engine) (*cluster, CoordinatorConfig) {
	t.Helper()
	store, err := OpenStore("", journal.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv := NewStoreServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start store server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := &cluster{store: store, server: srv}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		wc := NewStoreClientCfg("http://"+addr, RPCConfig{Transport: eng.Transport(id, NewTransport())})
		t.Cleanup(wc.Close)
		w := NewWorker(WorkerConfig{ID: id, Points: pts, Store: wc, Workers: 2})
		waddr, err := w.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		t.Cleanup(func() { w.Close() })
		cl.workers = append(cl.workers, w)
		cl.nodes = append(cl.nodes, Node{ID: id, URL: "http://" + waddr, Slots: 2})
	}
	cfg := CoordinatorConfig{
		Points: pts, Nodes: cl.nodes,
		RPC:    RPCConfig{Transport: eng.Transport("coord", NewTransport())},
		Health: fastHealth,
	}
	return cl, cfg
}

// TestChaosSoakByteIdentity is the tentpole contract under fire: every
// named fault schedule, at several seeds, yields output byte-identical
// to the single-node reference as long as one node stays reachable.
func TestChaosSoakByteIdentity(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, 3, 4)
	ref := singleNodeReference(t, pts)

	for _, profile := range chaos.Profiles() {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed=%d", profile, seed), func(t *testing.T) {
				ccfg, err := chaos.Profile(profile, seed)
				if err != nil {
					t.Fatal(err)
				}
				cl, cfg := chaosCluster(t, pts, 3, chaos.New(ccfg))
				coord, err := NewCoordinator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := coord.Run(context.Background())
				if err != nil {
					t.Fatalf("campaign under %s/%d failed: %v (stats %+v)", profile, seed, err, coord.Stats())
				}
				for i := range ref {
					want := normalize(t, pts[i].CacheKey(), ref[i])
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("%s/%d: point %d diverged from reference", profile, seed, i)
					}
				}
				_ = cl
			})
		}
	}
}

// gate is a controllable transport: requests whose chaos target is cut
// fail with a transport error — the deterministic stand-in for a
// partition, driven by the test instead of coins.
type gate struct {
	mu   sync.Mutex
	cut  map[string]bool
	base http.RoundTripper
}

func newGate() *gate { return &gate{cut: map[string]bool{}, base: NewTransport()} }

func (g *gate) set(target string, cut bool) {
	g.mu.Lock()
	g.cut[target] = cut
	g.mu.Unlock()
}

func (g *gate) RoundTrip(req *http.Request) (*http.Response, error) {
	target := req.Header.Get(chaos.TargetHeader)
	g.mu.Lock()
	cut := g.cut[target]
	g.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("gate: link to %s cut", target)
	}
	return g.base.RoundTrip(req)
}

// TestSuspectDeadRejoinServesPoints drives the membership machine end
// to end with a deterministic gate: w0 is cut until the coordinator
// declares it dead, then healed — it must rejoin and complete points
// again, and the output must still match the reference. w1 stays cut
// until w0 has completed a point: a tiny point takes well under a
// millisecond, so a live w1 could finish the whole campaign before the
// prober brings w0 back.
func TestSuspectDeadRejoinServesPoints(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, 4, 6)
	ref := singleNodeReference(t, pts)

	cl := startCluster(t, pts, 2, nil)
	g := newGate()
	g.set("w0", true)
	g.set("w1", true)
	coord, err := NewCoordinator(CoordinatorConfig{
		Points: pts, Nodes: cl.nodes,
		RPC:    RPCConfig{Transport: g},
		Health: fastHealth,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	var got []*flow.Result
	go func() {
		res, err := coord.Run(context.Background())
		got = res
		done <- err
	}()

	// Phase 1: the cut links must take both nodes through suspect to
	// dead.
	waitFor(t, 5*time.Second, func() bool { return coord.Stats().Deaths >= 2 })
	before := cl.workers[0].Completed()
	if before != 0 {
		t.Fatalf("cut worker completed %d points", before)
	}

	// Phase 2: heal. The prober must bring w0 back and its slots must
	// pull work again; then w1 may help finish.
	g.set("w0", false)
	waitFor(t, 5*time.Second, func() bool { return cl.workers[0].Completed() > 0 })
	g.set("w1", false)
	if err := <-done; err != nil {
		t.Fatalf("campaign failed: %v (stats %+v)", err, coord.Stats())
	}
	st := coord.Stats()
	if st.Rejoined < 1 {
		t.Fatalf("healed node never rejoined: %+v", st)
	}
	if cl.workers[0].Completed() == 0 {
		t.Fatalf("rejoined node served no points: %+v", st)
	}
	for i := range ref {
		want := normalize(t, pts[i].CacheKey(), ref[i])
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("point %d diverged after death+rejoin", i)
		}
	}
}

// waitFor polls cond until true or the deadline.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStoreClientErrorPaths tables the client's failure handling: torn
// gob bodies decode to a miss (never a partial entry), key-mismatched
// puts are rejected server-side, and duplicated put deliveries are
// idempotent (first-put-wins).
func TestStoreClientErrorPaths(t *testing.T) {
	design := tinyDesign(5)
	pts := sweepPoints(design, 1, 1)
	ref := singleNodeReference(t, pts)
	key := pts[0].CacheKey()
	data, err := campaign.EncodeEntry(campaign.Entry{Key: key, Res: ref[0]})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("torn-gob-body", func(t *testing.T) {
		for _, cutAt := range []int{1, len(data) / 2, len(data) - 1} {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(data[:cutAt]) //nolint:errcheck
			}))
			c := NewStoreClientCfg(srv.URL, RPCConfig{retries: -1})
			if _, ok := c.Load(key); ok {
				t.Fatalf("truncated body at %d bytes decoded as a hit", cutAt)
			}
			c.Close()
			srv.Close()
		}
	})

	t.Run("key-mismatch-put", func(t *testing.T) {
		store, err := OpenStore("", journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewStoreServer(store)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// Hand-roll a put whose URL key disagrees with the entry's own
		// key: the server must reject it and store nothing under either.
		req, _ := http.NewRequest(http.MethodPut, "http://"+addr+"/v1/entry?key=somebody-else", strings.NewReader(string(data)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("key-mismatched put accepted")
		}
		if store.Len() != 0 {
			t.Fatalf("mismatched put stored %d entries", store.Len())
		}
	})

	t.Run("duplicate-put-idempotent", func(t *testing.T) {
		store, err := OpenStore("", journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewStoreServer(store)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// Every put delivered twice: the store must keep exactly one
		// entry and the client must still see success.
		eng := chaos.New(chaos.Config{Seed: 1, DupRate: 1})
		c := NewStoreClientCfg("http://"+addr, RPCConfig{Transport: eng.Transport("w0", NewTransport())})
		defer c.Close()
		putErrs := metrics.Get("dist.client.put_err")
		c.Store(campaign.Entry{Key: key, Res: ref[0]})
		if n := metrics.Get("dist.client.put_err") - putErrs; n != 0 {
			t.Fatalf("duplicated put failed %d times", n)
		}
		if err := c.Publish(context.Background(), key); err != nil {
			t.Fatalf("publish after a duplicated put: %v", err)
		}
		if store.Len() != 1 {
			t.Fatalf("store has %d entries after duplicated put, want 1", store.Len())
		}
		e, ok := c.Load(key)
		if !ok {
			t.Fatal("entry missing after duplicated put")
		}
		if !reflect.DeepEqual(e.Res, normalize(t, key, ref[0])) {
			t.Fatal("duplicated put corrupted the entry")
		}
	})
}

// TestLoneNodePublishesAfterHeal: the only node's store link is cut, so
// it computes points it cannot publish and answers 503 for each; once
// the link heals, it publishes what it computed and the campaign
// completes with every point in the store.
func TestLoneNodePublishesAfterHeal(t *testing.T) {
	pts := sweepPoints(tinyDesign(6), 1, 2)
	ref := singleNodeReference(t, pts)

	store, err := OpenStore("", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewStoreServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := newGate()
	g.set("store", true)
	c := NewStoreClientCfg("http://"+addr, RPCConfig{Transport: g, retries: -1})
	defer c.Close()
	w := NewWorker(WorkerConfig{ID: "w0", Points: pts, Store: c, Workers: 2})
	waddr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	coord, err := NewCoordinator(CoordinatorConfig{
		Points: pts, Nodes: []Node{{ID: "w0", URL: "http://" + waddr, Slots: 2}}, Health: fastHealth,
	})
	if err != nil {
		t.Fatal(err)
	}

	blocked := metrics.Get("dist.worker.publish_blocked")
	done := make(chan error, 1)
	var got []*flow.Result
	go func() {
		res, err := coord.Run(context.Background())
		got = res
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return metrics.Get("dist.worker.publish_blocked") > blocked })
	if store.Len() != 0 {
		t.Fatalf("cut store received %d entries", store.Len())
	}
	g.set("store", false)
	if err := <-done; err != nil {
		t.Fatalf("campaign failed after the heal: %v (stats %+v)", err, coord.Stats())
	}
	for i := range ref {
		if !reflect.DeepEqual(got[i], ref[i].Summary()) {
			t.Fatalf("point %d diverged", i)
		}
	}
	if store.Len() != len(pts) {
		t.Fatalf("store has %d entries after the heal, want %d", store.Len(), len(pts))
	}
}

// failPuts is a transport whose every PUT fails: a worker behind it
// computes and reads the store but can never publish.
type failPuts struct{ base http.RoundTripper }

func (f failPuts) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut {
		return nil, fmt.Errorf("failPuts: %s refused", req.URL.Path)
	}
	return f.base.RoundTrip(req)
}

// TestUnpublishableNodeDoesNotStall: w0 computes its points but cannot
// put them, so each one answers 503 until the coordinator moves it to
// w1. Nothing but the queue decides who computes, so w1 starts on the
// point at once; the campaign finishes well inside its deadline and
// matches the reference.
func TestUnpublishableNodeDoesNotStall(t *testing.T) {
	pts := sweepPoints(tinyDesign(2), 2, 3)
	ref := singleNodeReference(t, pts)

	store, err := OpenStore("", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewStoreServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var nodes []Node
	for i := 0; i < 2; i++ {
		cfg := RPCConfig{}
		if i == 0 {
			cfg = RPCConfig{Transport: failPuts{NewTransport()}, retries: -1}
		}
		c := NewStoreClientCfg("http://"+addr, cfg)
		t.Cleanup(c.Close)
		id := fmt.Sprintf("w%d", i)
		w := NewWorker(WorkerConfig{ID: id, Points: pts, Store: c, Workers: 2})
		waddr, err := w.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		nodes = append(nodes, Node{ID: id, URL: "http://" + waddr, Slots: 2})
	}
	coord, err := NewCoordinator(CoordinatorConfig{Points: pts, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	blocked := metrics.Get("dist.worker.publish_blocked")
	got, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("campaign with an unpublishable node: %v (stats %+v)", err, coord.Stats())
	}
	for i := range ref {
		if !reflect.DeepEqual(got[i], ref[i].Summary()) {
			t.Fatalf("point %d diverged", i)
		}
	}
	if metrics.Get("dist.worker.publish_blocked") == blocked {
		t.Fatal("w0 computed nothing it could not publish: the test exercised no move")
	}
}

// TestWorkerGracefulShutdown: a draining worker refuses new runs with
// 503 and Shutdown returns cleanly with nothing in flight.
func TestWorkerGracefulShutdown(t *testing.T) {
	design := tinyDesign(7)
	pts := sweepPoints(design, 1, 1)
	cl := startCluster(t, pts, 1, nil)

	if err := cl.workers[0].Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener is closed; a second Shutdown is a no-op.
	if err := cl.workers[0].Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	resp, err := http.Post(cl.nodes[0].URL+"/v1/run", "application/json", strings.NewReader(`{"index":0}`))
	if err == nil {
		resp.Body.Close()
		t.Fatal("closed worker still accepting connections")
	}
}

// TestNoGoroutineLeaks runs a full chaos campaign — including a node
// death and rejoin — shuts everything down, and requires the goroutine
// count to return to its baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, 2, 3)

	base := runtime.NumGoroutine()

	ccfg, err := chaos.Profile("partition", 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, cfg := chaosCluster(t, pts, 2, chaos.New(ccfg))
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background()); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	for _, w := range cl.workers {
		if err := w.Shutdown(context.Background()); err != nil {
			t.Fatalf("worker shutdown: %v", err)
		}
	}
	if err := cl.server.Shutdown(context.Background()); err != nil {
		t.Fatalf("store shutdown: %v", err)
	}

	// Idle HTTP connections and just-cancelled probers take a moment to
	// unwind; poll instead of asserting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				base, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAllNodesDeadThenHealCompletes is the chaos-soak flake made
// deterministic. The soak's "no live node to run point N" was reassign
// declaring the campaign fatal the instant every node was Dead, although
// Dead ends at a node's next good probe: under the flaky schedule all
// three nodes can fail probeFails probes in a row at once, the more
// easily the slower a loaded host answers. Here both nodes are cut until
// dead, so every point waits in the queue with no node alive; healing
// one link must bring the campaign home, not luck.
func TestAllNodesDeadThenHealCompletes(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, 2, 3)
	ref := singleNodeReference(t, pts)

	cl := startCluster(t, pts, 2, nil)
	g := newGate()
	g.set("w0", true)
	g.set("w1", true)
	coord, err := NewCoordinator(CoordinatorConfig{
		Points: pts, Nodes: cl.nodes,
		RPC:    RPCConfig{Transport: g},
		Health: fastHealth,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var got []*flow.Result
	go func() {
		res, err := coord.Run(context.Background())
		got = res
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return coord.Stats().Deaths >= 2 })
	select {
	case err := <-done:
		t.Fatalf("campaign ended with every node dead: %v", err)
	default:
	}
	g.set("w1", false)
	if err := <-done; err != nil {
		t.Fatalf("campaign failed after the heal: %v (stats %+v)", err, coord.Stats())
	}
	for i := range ref {
		if !reflect.DeepEqual(got[i], ref[i].Summary()) {
			t.Fatalf("point %d diverged after all-dead + heal", i)
		}
	}
}

// TestAllNodesDeadEndsWithContext: queued points wait for a rejoin, and
// the campaign's own context is what ends the wait.
func TestAllNodesDeadEndsWithContext(t *testing.T) {
	pts := sweepPoints(tinyDesign(1), 1, 2)
	cl := startCluster(t, pts, 1, nil)
	g := newGate()
	g.set("w0", true)
	coord, err := NewCoordinator(CoordinatorConfig{
		Points: pts, Nodes: cl.nodes,
		RPC:    RPCConfig{Transport: g},
		Health: fastHealth,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(ctx)
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return coord.Stats().Deaths >= 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
}
