package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netlist"
)

func tinyDesign(seed int64) *netlist.Netlist {
	return netlist.Generate(cellib.Default14nm(), netlist.Tiny(seed))
}

func sweepPoints(design *netlist.Netlist, nFreq, nSeeds int) []campaign.Point {
	key := campaign.KeyFor(design)
	var pts []campaign.Point
	for f := 0; f < nFreq; f++ {
		base := flow.Options{TargetFreqGHz: 0.3 + 0.1*float64(f)}
		var seeds []int64
		for s := 0; s < nSeeds; s++ {
			seeds = append(seeds, int64(1000*f+s))
		}
		pts = append(pts, campaign.Points(design, key, base, seeds)...)
	}
	return pts
}

// normalize round-trips a result through the wire codec so reference
// and distributed results are compared in the same representation.
func normalize(t *testing.T, key string, res *flow.Result) *flow.Result {
	t.Helper()
	data, err := campaign.EncodeEntry(campaign.Entry{Key: key, Res: res})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	e, err := campaign.DecodeEntry(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return e.Res
}

// singleNodeReference runs the campaign through a plain in-process
// engine — the byte-identity baseline for every sharded topology.
func singleNodeReference(t *testing.T, pts []campaign.Point) []*flow.Result {
	t.Helper()
	eng := campaign.New(campaign.Config{Workers: 4, Cache: campaign.NewCache(0)})
	res, err := eng.Run(context.Background(), pts)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res
}

// cluster is one in-process loopback deployment: store server + workers.
type cluster struct {
	store   *Store
	server  *StoreServer
	client  *StoreClient
	workers []*Worker
	nodes   []Node
}

// startCluster brings up a store and n workers on loopback. kills maps
// worker index -> KillOnRun for that worker (nil = no kills).
func startCluster(t *testing.T, pts []campaign.Point, n int, kills map[int]int) *cluster {
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
	cl := &cluster{store: store, server: srv, client: NewStoreClient("http://" + addr)}
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{
			ID:        fmt.Sprintf("w%d", i),
			Points:    pts,
			Store:     cl.client,
			Workers:   2,
			KillOnRun: kills[i],
		})
		waddr, err := w.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		t.Cleanup(func() { w.Close() })
		cl.workers = append(cl.workers, w)
		cl.nodes = append(cl.nodes, Node{ID: fmt.Sprintf("w%d", i), URL: "http://" + waddr, Slots: 2})
	}
	return cl
}

func TestRingIsPureFunctionOfNodeSet(t *testing.T) {
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	a := NewRing([]string{"w0", "w1", "w2"}, 64)
	b := NewRing([]string{"w2", "w0", "w1"}, 64) // permuted node order
	owners := map[string]bool{}
	for _, k := range keys {
		oa, ok := a.Owner(k, nil)
		if !ok {
			t.Fatalf("no owner for %s", k)
		}
		ob, _ := b.Owner(k, nil)
		if oa != ob {
			t.Fatalf("ring not permutation-invariant: %s -> %s vs %s", k, oa, ob)
		}
		owners[oa] = true
	}
	if len(owners) < 2 {
		t.Fatalf("degenerate ring: all keys on one node")
	}
	// A node death moves only the dead node's keys.
	live := map[string]bool{"w0": true, "w2": true}
	for _, k := range keys {
		before, _ := a.Owner(k, nil)
		after, ok := a.Owner(k, live)
		if !ok {
			t.Fatalf("no live owner for %s", k)
		}
		if before != "w1" && after != before {
			t.Fatalf("key %s moved from live node %s to %s", k, before, after)
		}
		if after == "w1" {
			t.Fatalf("key %s assigned to dead node", k)
		}
	}
}

// TestStorePutValidatesAndDedupes: a put must decode as an entry under
// its own key — garbage and key-mismatched puts are rejected — and a
// second put of a stored key is acknowledged but dropped.
func TestStorePutValidatesAndDedupes(t *testing.T) {
	s, err := OpenStore("", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := sweepPoints(tinyDesign(7), 1, 1)
	ref := singleNodeReference(t, pts)
	key := pts[0].CacheKey()
	data, err := campaign.EncodeEntry(campaign.Entry{Key: key, Res: ref[0]})
	if err != nil {
		t.Fatal(err)
	}
	if stored, err := s.Put(key, data); err != nil || !stored {
		t.Fatalf("put: stored=%v err=%v", stored, err)
	}
	if _, err := s.Put(key, []byte("junk")); err == nil {
		t.Fatal("garbage put accepted")
	}
	if _, err := s.Put("other", data); err == nil {
		t.Fatal("key-mismatched put accepted")
	}
	if stored, err := s.Put(key, data); err != nil || stored {
		t.Fatalf("duplicate put: stored=%v err=%v", stored, err)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", s.Len())
	}
}

// TestStoreDuplicatePutKeepsFirstBytes: two encodes of one entry decode
// the same but need not be the same bytes — gob writes StepRecord.Metrics
// in map iteration order. A re-encoded duplicate is still a duplicate, and
// Get keeps serving the bytes the first put stored.
func TestStoreDuplicatePutKeepsFirstBytes(t *testing.T) {
	pts := sweepPoints(tinyDesign(7), 1, 1)
	ref := singleNodeReference(t, pts)
	key := pts[0].CacheKey()
	e := campaign.Entry{Key: key, Res: ref[0], Steps: []flow.StepRecord{{
		Step:    "synth",
		Metrics: map[string]float64{"area": 1, "wns": 2, "tns": 3, "power": 4, "cells": 5, "passes": 6},
	}}}
	first, err := campaign.EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	var again []byte
	for i := 0; i < 100 && (again == nil || bytes.Equal(again, first)); i++ {
		if again, err = campaign.EncodeEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(again, first) {
		t.Fatal("100 encodes of a six-key map came out byte-identical")
	}
	s, err := OpenStore("", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if stored, err := s.Put(key, first); err != nil || !stored {
		t.Fatalf("first put: stored=%v err=%v", stored, err)
	}
	if stored, err := s.Put(key, again); err != nil || stored {
		t.Fatalf("re-encoded duplicate put: stored=%v err=%v", stored, err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, first) {
		t.Fatal("Get does not serve the first put's bytes")
	}
}

func TestStoreWALRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	design := tinyDesign(3)
	pts := sweepPoints(design, 1, 3)
	ref := singleNodeReference(t, pts)

	s, err := OpenStore(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		data, err := campaign.EncodeEntry(campaign.Entry{Key: p.CacheKey(), Res: ref[i]})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(p.CacheKey(), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A re-opened store serves everything it acknowledged.
	s2, err := OpenStore(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats(); got.Recovered != len(pts) || got.Entries != len(pts) {
		t.Fatalf("recovery stats: %+v", got)
	}
	for i, p := range pts {
		data, ok := s2.Get(p.CacheKey())
		if !ok {
			t.Fatalf("point %d missing after recovery", i)
		}
		e, err := campaign.DecodeEntry(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.Res, normalize(t, p.CacheKey(), ref[i])) {
			t.Fatalf("point %d result changed across recovery", i)
		}
	}

	// A torn tail (partial final record) costs nothing but the tail.
	seg, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(seg) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	f, err := os.OpenFile(seg[len(seg)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s3, err := OpenStore(dir, journal.Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s3.Close()
	if s3.Len() != len(pts) {
		t.Fatalf("torn tail lost entries: %d != %d", s3.Len(), len(pts))
	}
}

// TestShardedMatchesSingleNode is the tentpole contract: a campaign
// sharded over loopback nodes is byte-identical to the single-node
// reference at any node count.
func TestShardedMatchesSingleNode(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, 3, 4)
	ref := singleNodeReference(t, pts)

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			cl := startCluster(t, pts, n, nil)
			coord, err := NewCoordinator(CoordinatorConfig{
				Points: pts, Nodes: cl.nodes, Store: cl.client,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Run(context.Background())
			if err != nil {
				t.Fatalf("coordinated run: %v", err)
			}
			if len(got) != len(ref) {
				t.Fatalf("got %d results, want %d", len(got), len(ref))
			}
			for i := range ref {
				want := normalize(t, pts[i].CacheKey(), ref[i])
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("nodes=%d: point %d diverged from single-node reference", n, i)
				}
			}
		})
	}
}

// TestStealPolicy pins the work-stealing rules an idle slot follows:
// longest live queue first, node-ID tie-break, tail-end pop (the owner
// pops the head, so thief and owner never chase the same point), dead
// nodes never victimized, and no self-steal.
func TestStealPolicy(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, 2, 3)
	nodes := []Node{
		{ID: "a", URL: "http://x"}, {ID: "b", URL: "http://x"}, {ID: "c", URL: "http://x"},
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Points: pts, Nodes: nodes, Store: NewStoreClient("http://x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queues = map[string][]int{"a": {}, "b": {1, 2, 3}, "c": {4, 5}}

	if idx, ok := c.stealLocked("a"); !ok || idx != 3 {
		t.Fatalf("steal 1: got (%d,%t), want tail of longest queue (3,true)", idx, ok)
	}
	// b and c now tie at two queued points: lowest node ID wins.
	if idx, ok := c.stealLocked("a"); !ok || idx != 2 {
		t.Fatalf("steal 2: got (%d,%t), want (2,true) from b on tie-break", idx, ok)
	}
	if idx, ok := c.stealLocked("a"); !ok || idx != 5 {
		t.Fatalf("steal 3: got (%d,%t), want (5,true) from c", idx, ok)
	}
	// A dead node's queue is declareDead's to drain, never a victim's.
	c.state["c"] = NodeDead
	c.queues["c"] = []int{4, 5, 6, 7}
	if idx, ok := c.stealLocked("a"); !ok || idx != 1 {
		t.Fatalf("steal 4: got (%d,%t), want (1,true) from live b, not dead c", idx, ok)
	}
	// Only the caller's own queue has work left: nothing to steal.
	c.queues["a"] = []int{9}
	if _, ok := c.stealLocked("a"); ok {
		t.Fatal("stole despite only own queue having work")
	}
	if got := c.stolen.Load(); got != 4 {
		t.Fatalf("stolen counter = %d, want 4", got)
	}
}

// TestWorkerKillMidPointReassigns kills a worker on its first run
// request, and requires the coordinator to move the node's points onto
// survivors and still produce the byte-identical result set.
func TestWorkerKillMidPointReassigns(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, 3, 4)
	ref := singleNodeReference(t, pts)

	// Every worker gets some share of 12 points on a 3-node ring; kill
	// w1 on its first run request, mid-point.
	cl := startCluster(t, pts, 3, map[int]int{1: 1})
	coord, err := NewCoordinator(CoordinatorConfig{
		Points: pts, Nodes: cl.nodes, Store: cl.client,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("coordinated run with dead worker: %v", err)
	}
	for i := range ref {
		want := normalize(t, pts[i].CacheKey(), ref[i])
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("point %d diverged after worker death", i)
		}
	}
	// The survivors may steal the suspect node's whole queue and finish
	// before the prober declares it dead.
	st := coord.Stats()
	if st.Deaths > 1 {
		t.Fatalf("deaths = %d, want at most 1", st.Deaths)
	}
	if st.Reassigned == 0 {
		t.Fatal("no points reassigned off the killed worker")
	}
	if cl.workers[1].Completed() != 0 {
		t.Fatalf("killed worker completed %d points", cl.workers[1].Completed())
	}
}

// TestAllNodesDeadFails: when every node dies and the coordinator does
// not watch for rejoins, the campaign reports the failure instead of
// hanging. (With rejoin probing on, orphaned points wait for a node to
// come back — TestAllNodesDeadThenHealCompletes.)
func TestAllNodesDeadFails(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, 1, 2)
	cl := startCluster(t, pts, 1, map[int]int{0: 1})
	coord, err := NewCoordinator(CoordinatorConfig{
		Points: pts, Nodes: cl.nodes, Store: cl.client,
		Health: HealthConfig{DisableRejoin: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background()); err == nil {
		t.Fatal("campaign with no surviving node succeeded")
	}
}

// TestTierServesAcrossNodes: a second campaign over the same points on
// fresh workers computes nothing — every point is a network-tier hit.
func TestTierServesAcrossNodes(t *testing.T) {
	design := tinyDesign(2)
	pts := sweepPoints(design, 2, 2)
	cl := startCluster(t, pts, 2, nil)
	coord, err := NewCoordinator(CoordinatorConfig{Points: pts, Nodes: cl.nodes, Store: cl.client})
	if err != nil {
		t.Fatal(err)
	}
	first, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Fresh workers, same store: all served from the network tier.
	fresh := []*Worker{}
	nodes := []Node{}
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{ID: fmt.Sprintf("f%d", i), Points: pts, Store: cl.client, Workers: 2})
		addr, err := w.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		fresh = append(fresh, w)
		nodes = append(nodes, Node{ID: fmt.Sprintf("f%d", i), URL: "http://" + addr, Slots: 2})
	}
	coord2, err := NewCoordinator(CoordinatorConfig{Points: pts, Nodes: nodes, Store: cl.client})
	if err != nil {
		t.Fatal(err)
	}
	second, err := coord2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Fatalf("point %d changed between campaigns", i)
		}
	}
	var tierHits int64
	for _, w := range fresh {
		st := w.engine.Cache().Stats()
		tierHits += st.TierHits
	}
	if tierHits != int64(len(pts)) {
		t.Fatalf("tier hits = %d, want %d (every point served from store)", tierHits, len(pts))
	}
}

// TestRunAnswerCarriesEntry pins the store traffic of a healthy 2-node
// campaign: results equal the Summary() of the live run's, each point
// costs its worker one tier read (a miss: nobody computed it yet), and
// no point is fetched again for assembly — each one is assembled from the
// entry its worker's 200 carried.
func TestRunAnswerCarriesEntry(t *testing.T) {
	pts := sweepPoints(tinyDesign(3), 2, 3)
	ref := singleNodeReference(t, pts)
	cl := startCluster(t, pts, 2, nil)
	coord, err := NewCoordinator(CoordinatorConfig{Points: pts, Nodes: cl.nodes, Store: cl.client})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := metrics.Get("dist.store.hit"), metrics.Get("dist.store.miss")
	got, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !reflect.DeepEqual(got[i], ref[i].Summary()) {
			t.Fatalf("point %d is not the live result's summary", i)
		}
	}
	if n := metrics.Get("dist.store.hit") - hits; n != 0 {
		t.Fatalf("store served %d entry hits, want 0", n)
	}
	if n := metrics.Get("dist.store.miss") - misses; n != int64(len(pts)) {
		t.Fatalf("store answered %d entry misses, want one per point (%d)", n, len(pts))
	}
	if cl.store.Len() != len(pts) {
		t.Fatalf("store holds %d entries for %d points", cl.store.Len(), len(pts))
	}
}

// TestAssembleFetchesUnreadableAnswers: a 200 guarantees the entry is in
// the store, not that the answer's body is usable — a node answering
// with an empty or torn body costs one store fetch per point, nothing
// else.
func TestAssembleFetchesUnreadableAnswers(t *testing.T) {
	pts := sweepPoints(tinyDesign(4), 1, 3)
	ref := singleNodeReference(t, pts)
	cl := startCluster(t, pts, 0, nil)
	bodies := [][]byte{nil, []byte("not an entry"), nil}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/v1/run", func(rw http.ResponseWriter, r *http.Request) {
		var req runRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		e := campaign.Entry{Key: pts[req.Index].CacheKey(), Res: ref[req.Index]}
		cl.client.StoreCtx(r.Context(), e)
		if req.Index == 2 {
			// Another point's entry: readable, but not this point's.
			e = campaign.Entry{Key: pts[0].CacheKey(), Res: ref[0]}
			bodies[2], _ = campaign.EncodeEntry(e)
		}
		rw.Write(bodies[req.Index]) //nolint:errcheck
	})
	node := httptest.NewServer(mux)
	defer node.Close()
	coord, err := NewCoordinator(CoordinatorConfig{
		Points: pts, Nodes: []Node{{ID: "fake", URL: node.URL}}, Store: cl.client,
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := metrics.Get("dist.store.hit")
	got, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !reflect.DeepEqual(got[i], ref[i].Summary()) {
			t.Fatalf("point %d diverged", i)
		}
	}
	if n := metrics.Get("dist.store.hit") - hits; n != int64(len(pts)) {
		t.Fatalf("assembly fetched %d entries, want %d", n, len(pts))
	}
}
