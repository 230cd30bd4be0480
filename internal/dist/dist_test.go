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
	"sync"
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
			coord, err := NewCoordinator(CoordinatorConfig{Points: pts, Nodes: cl.nodes})
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

// TestQueuePolicy pins how slots pull from the coordinator's one queue:
// points go out in point order; a failed dispatch counts as a
// reassignment, suspects its node and puts the point back at the head,
// where it goes to another node while one is not Dead; a Suspect node
// pulls nothing.
func TestQueuePolicy(t *testing.T) {
	pts := sweepPoints(tinyDesign(1), 2, 3)
	nodes := []Node{{ID: "a", URL: "http://x"}, {ID: "b", URL: "http://x"}}
	c, err := NewCoordinator(CoordinatorConfig{Points: pts, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	c.queue = []int{0, 1, 2, 3, 4, 5}
	ctx := context.Background()
	take := func(id string, want int) {
		t.Helper()
		if idx, ok := c.next(ctx, id); !ok || idx != want {
			t.Fatalf("next(%s) = (%d,%t), want (%d,true)", id, idx, ok, want)
		}
	}
	takesNothing := func(id string) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		if idx, ok := c.takeLocked(id); ok {
			t.Fatalf("%s (%s) pulled point %d", id, c.state[id], idx)
		}
	}
	setState := func(id string, st NodeState) {
		c.mu.Lock()
		c.state[id] = st
		c.mu.Unlock()
	}

	take("a", 0)
	take("b", 1)
	take("a", 2)

	c.redispatch("a", 0, errUnavailable)
	if st := c.stateOf("a"); st != NodeSuspect {
		t.Fatalf("failed dispatch left a %s, want suspect", st)
	}
	takesNothing("a")
	c.revive("a")
	take("a", 3) // 0 is back at the head, but not for the node it failed on
	take("b", 0)

	c.redispatch("a", 3, errUnavailable)
	c.revive("a")
	setState("b", NodeSuspect)
	take("a", 4) // a suspect b may still recover and take 3
	setState("b", NodeDead)
	take("a", 3) // with b dead, a takes its failed point back
	take("a", 5)
	takesNothing("a")

	if got := c.Stats().Reassigned; got != 2 {
		t.Fatalf("Reassigned = %d, want 2 (one per failed dispatch)", got)
	}
}

// TestWorkerKillMidPointReassigns kills a worker on its first run
// request, and requires the coordinator to move the node's points onto
// survivors and still produce the byte-identical result set.
func TestWorkerKillMidPointReassigns(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, 3, 4)
	ref := singleNodeReference(t, pts)

	// Every node's slots pull from the start, so w1 gets points; kill it
	// on its first run request, mid-point.
	cl := startCluster(t, pts, 3, map[int]int{1: 1})
	coord, err := NewCoordinator(CoordinatorConfig{Points: pts, Nodes: cl.nodes})
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
	// The survivors may take every point left and finish before the
	// prober declares w1 dead.
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

// TestTierServesAcrossNodes: a second campaign over the same points on
// fresh workers computes nothing — every point is a network-tier hit.
func TestTierServesAcrossNodes(t *testing.T) {
	design := tinyDesign(2)
	pts := sweepPoints(design, 2, 2)
	cl := startCluster(t, pts, 2, nil)
	coord, err := NewCoordinator(CoordinatorConfig{Points: pts, Nodes: cl.nodes})
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
	coord2, err := NewCoordinator(CoordinatorConfig{Points: pts, Nodes: nodes})
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
	coord, err := NewCoordinator(CoordinatorConfig{Points: pts, Nodes: cl.nodes})
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

// TestUnreadableAnswerIsRedispatched: a 200 completes a point only when
// it carries that point's entry. A node that answers each point's first
// dispatch with another point's entry has every point put back in the
// queue once, and the coordinator still reads nothing from the store.
func TestUnreadableAnswerIsRedispatched(t *testing.T) {
	pts := sweepPoints(tinyDesign(4), 1, 3)
	ref := singleNodeReference(t, pts)
	cl := startCluster(t, pts, 0, nil)
	var mu sync.Mutex
	answered := map[int]bool{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/v1/run", func(rw http.ResponseWriter, r *http.Request) {
		var req runRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		i := req.Index
		cl.client.StoreCtx(r.Context(), campaign.Entry{Key: pts[i].CacheKey(), Res: ref[i]})
		mu.Lock()
		first := !answered[i]
		answered[i] = true
		mu.Unlock()
		if first {
			// Another point's entry: readable, but not this point's.
			i = (i + 1) % len(pts)
		}
		body, _ := campaign.EncodeEntry(campaign.Entry{Key: pts[i].CacheKey(), Res: ref[i]})
		rw.Write(body) //nolint:errcheck
	})
	node := httptest.NewServer(mux)
	defer node.Close()
	coord, err := NewCoordinator(CoordinatorConfig{
		Points: pts, Nodes: []Node{{ID: "fake", URL: node.URL}}, Health: fastHealth,
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
	if n := coord.Stats().Reassigned; n != int64(len(pts)) {
		t.Fatalf("Reassigned = %d, want %d (one per misdirected answer)", n, len(pts))
	}
	if n := metrics.Get("dist.store.hit") - hits; n != 0 {
		t.Fatalf("the store served %d entries during the campaign, want 0", n)
	}
}
