package repro

// PR 8: campaign-as-a-service. The paper's schedule argument is about
// fleets, not single machines — "typical SP&R flows can take up to
// several days ... on current design sizes", so real campaigns shard
// across many licenses on many hosts. This file promotes the crash-safe
// sweep to the distributed service in internal/dist: a shared
// WAL-backed result store, worker nodes running the unchanged campaign
// engine with the store as their cache's network tier, and a
// coordinator whose one queue of points feeds every node's slots.
// Byte-identity with the single-node sweep is the whole contract: the
// output is assembled from the store entries the workers' answers carry,
// addressed by content key, so node count, scheduling, even a worker
// killed mid-point cannot change a byte of it.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/warehouse"
)

// CampaignPoints expands a SweepConfig into the campaign's point list —
// the shared currency of the distributed service. The coordinator and
// every worker derive the identical list from the same config, and the
// single-node Sweep runs the same list, which is what makes the two
// modes diffable byte-for-byte.
func CampaignPoints(cfg SweepConfig) ([]campaign.Point, error) {
	if cfg.Design == nil {
		return nil, fmt.Errorf("repro: Sweep: nil design")
	}
	if len(cfg.Freqs) == 0 || len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("repro: Sweep: empty frequency or seed set")
	}
	key := campaign.KeyFor(cfg.Design)
	var pts []campaign.Point
	for _, f := range cfg.Freqs {
		base := cfg.Base
		base.TargetFreqGHz = f
		pts = append(pts, campaign.Points(cfg.Design, key, base, cfg.Seeds)...)
	}
	return pts, nil
}

// DistSweepConfig parameterizes a sharded sweep over in-process
// loopback nodes. SweepConfig.Workers becomes the per-node concurrency
// (each node models one licensed host), and JournalDir becomes the
// shared store's WAL directory — kill the whole deployment, rerun, and
// recovered points are served from the store instead of recomputed.
type DistSweepConfig struct {
	SweepConfig
	// Nodes is the worker node count (<=0 = 1).
	Nodes int
	// ChaosProfile, when non-empty, injects a deterministic fault
	// schedule from internal/chaos into every link of the deployment:
	// "flaky", "slow", "partition", or "kill". The contract under any
	// schedule with at least one live node is byte-identical output.
	ChaosProfile string
	// ChaosSeed keys the chaos coin schedule (and the RPC retry jitter).
	ChaosSeed int64
	// Stats, when non-nil, receives the coordinator's failure-handling
	// counters after the run (suspected, rejoined, reassigned, ...).
	Stats *dist.CoordStats
	// Warehouse, when non-nil, is served at /warehouse/ on a loopback
	// metrics.Server for the duration of the sweep, and every worker
	// node ingests its METRICS records through its own HTTP client —
	// the same ingest path a multi-host fleet uses. Ingestion always bypasses the chaos
	// transports: observability must survive the faults it describes.
	Warehouse *warehouse.Warehouse
}

// DistSweep runs the sweep through the full coordinator/worker/store
// service over loopback HTTP. Point results are byte-identical to
// Sweep on the same config at any node count.
func DistSweep(cfg DistSweepConfig) (SweepResult, error) {
	var out SweepResult
	pts, err := CampaignPoints(cfg.SweepConfig)
	if err != nil {
		return out, err
	}
	nodes := cfg.Nodes
	if nodes <= 0 {
		nodes = 1
	}

	// The chaos engine (nil without a profile) wraps every endpoint's
	// transport; sources follow the deployment naming the schedules cut
	// on ("w0".."wN", "coord"; the store is a target, never a source).
	var eng *chaos.Engine
	var health dist.HealthConfig
	if cfg.ChaosProfile == "kill" && nodes == 1 {
		// "kill" cuts w0 for good and the coordinator waits for a dead
		// node to rejoin: alone, this would never return.
		return out, fmt.Errorf("repro: DistSweep: chaos profile %q needs at least 2 nodes", cfg.ChaosProfile)
	}
	if cfg.ChaosProfile != "" {
		ccfg, err := chaos.Profile(cfg.ChaosProfile, cfg.ChaosSeed)
		if err != nil {
			return out, err
		}
		eng = chaos.New(ccfg)
		// Probe fast relative to the schedules' heal windows so a
		// partitioned node dies and rejoins within one soak run.
		health = dist.HealthConfig{
			ProbeInterval:  20 * time.Millisecond,
			ProbeTimeout:   300 * time.Millisecond,
			RejoinInterval: 40 * time.Millisecond,
		}
	}
	rpcFor := func(source string) dist.RPCConfig {
		var rt http.RoundTripper
		if eng != nil {
			rt = eng.Transport(source, dist.NewTransport())
		}
		return dist.RPCConfig{Seed: cfg.ChaosSeed, Transport: rt}
	}

	store, err := dist.OpenStore(cfg.JournalDir, journal.Options{})
	if err != nil {
		return out, err
	}
	defer store.Close()
	srv := dist.NewStoreServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer srv.Close()
	// Without chaos the workers share one store client.
	shared := dist.NewStoreClientCfg("http://"+addr, dist.RPCConfig{Seed: cfg.ChaosSeed})
	defer shared.Close()
	if cfg.JournalDir != "" {
		// The same accounting as Sweep's journal: a recovered entry this
		// sweep's points ask for is replayed, any other is skipped.
		out.Recovery = store.WALStats()
		st, held := store.Stats(), store.Holds(pts)
		out.Resume = ResumeStats{
			Replayed: held, SkippedUnknown: st.Recovered - held,
			Corrupt: st.Corrupt, Duplicate: st.Duplicate,
		}
	}

	// With a warehouse configured, serve it over loopback and hand every
	// node its own HTTP ingest client — records flow node → warehouse
	// exactly as they would across real hosts, and first-wins dedupe on
	// (campaign, point, stage) absorbs replays and duplicate computes.
	var whURL string
	var emitters []*warehouse.Emitter
	if cfg.Warehouse != nil {
		whSrv := metrics.NewServer()
		whSrv.Aux = map[string]http.Handler{
			"/warehouse/": http.StripPrefix("/warehouse", warehouse.NewHandler(cfg.Warehouse)),
		}
		whAddr, err := whSrv.Start("127.0.0.1:0")
		if err != nil {
			return out, err
		}
		defer whSrv.Close()
		whURL = "http://" + whAddr + "/warehouse"
	}
	campaignID := campaign.ID(pts)
	keys := PointKeys(pts)

	var coordNodes []dist.Node
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("w%d", i)
		// Under chaos each worker gets its own store client so its RPCs
		// carry its own source name on the chaos graph (and its unsent
		// entries are per node, as they would be across real hosts).
		wclient := shared
		if eng != nil {
			wclient = dist.NewStoreClientCfg("http://"+addr, rpcFor(id))
			defer wclient.Close()
		}
		var obsv flow.Observer
		if whURL != "" {
			emit := warehouse.NewEmitter(campaignID, id, keys, warehouse.NewClient(whURL))
			emitters = append(emitters, emit)
			obsv = emit
		}
		w := dist.NewWorker(dist.WorkerConfig{
			ID:           id,
			Points:       pts,
			Store:        wclient,
			Workers:      cfg.Workers,
			StageTimeout: cfg.StageTimeout,
			Observer:     obsv,
		})
		waddr, err := w.Start("127.0.0.1:0")
		if err != nil {
			return out, err
		}
		defer w.Close()
		coordNodes = append(coordNodes, dist.Node{
			ID: id, URL: "http://" + waddr, Slots: campaign.Workers(cfg.Workers),
		})
	}

	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Points: pts, Nodes: coordNodes,
		RPC: rpcFor("coord"), Health: health,
	})
	if err != nil {
		return out, err
	}
	results, err := coord.Run(context.Background())
	for _, emit := range emitters {
		emit.Flush()
	}
	if cfg.Stats != nil {
		*cfg.Stats = coord.Stats()
	}
	if err != nil {
		return out, err
	}
	out.JournalErr = store.Err()
	out.Points = SweepRows(pts, results)
	return out, nil
}
