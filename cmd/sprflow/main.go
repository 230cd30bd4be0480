// Command sprflow runs the simulated SP&R implementation flow on a
// synthetic design and prints the QOR report — the atomic tool run every
// experiment in this repository drives.
//
// Usage:
//
//	sprflow -design pulpino -freq 0.6 -seed 1 [-effort 2] [-robot]
//	sprflow -design tiny -sweep 4 [-parallel N] [-journal DIR]
//	sprflow -design tiny -sweep 4 -speculate [-spec-tol 1]
//	sprflow -design tiny -sweep 4 -dist-nodes 4 [-journal DIR]
//	sprflow -design tiny -sweep 4 -dist-nodes 4 -chaos-profile partition -chaos-seed 7
//	sprflow -design tiny -sweep 4 -trace trace.json -metrics-addr :8080
//
// A -sweep runs the full frequency x seed cross on the campaign engine
// and prints one stable line per point to stdout (resume accounting
// goes to stderr). With -journal DIR every completed point is durable:
// kill -9 the sweep at any moment, rerun it with the same flags, and the
// output is byte-identical to the uninterrupted run.
//
// With -dist-nodes N the sweep runs through the distributed campaign
// service instead: a loopback result store, N worker nodes (each with
// -parallel local workers), and a coordinator whose one queue of points
// feeds every node's slots. stdout is byte-identical to the single-process sweep at
// any node count; -journal DIR becomes the shared store's WAL, so a
// killed deployment rerun with the same flags recomputes only the
// points that never reached the store.
//
// With -chaos-profile NAME a deterministic network fault schedule
// (internal/chaos) is injected into every link of the -dist-nodes
// deployment — drops, 503s, stalls, duplicated deliveries, scheduled
// partitions — keyed on -chaos-seed. stdout remains byte-identical to
// the single-process sweep under any schedule that leaves at least one
// worker reachable; failure-handling counters go to stderr.
//
// With -speculate the sweep overlaps downstream stages on predicted
// upstream artifacts drawn from a sweep-local artifact memory; commit
// decisions are pure functions of (prediction, real result), so the
// point lines on stdout are byte-identical to a non-speculative sweep
// at any -parallel setting. Hit/miss and chain accounting goes to
// stderr.
//
// With -trace FILE the whole run is traced — campaign points, flow
// stages, router iterations, scheduler queue waits, journal fsyncs —
// and a Chrome trace_event JSON file is written at exit (open it in
// chrome://tracing or https://ui.perfetto.dev). With -metrics-addr the
// live introspection endpoints (/metrics, /debug/spans, /debug/hist,
// /debug/pprof) are served while the run is in flight; -span-retention
// bounds the tracer's finished-span memory. In -dist-nodes mode the
// trace is stitched: worker and store spans parent under the
// coordinator's dispatch attempts via propagated Trace-Id/Span-Id
// headers, so retries and reroutes are visible child spans.
//
// With -warehouse DIR every flow stage of every sweep point lands as
// one structured record in a WAL-backed METRICS warehouse (queryable
// via the /warehouse/ API on -metrics-addr; live-tailable via its
// /v1/tail SSE stream). -warehouse-dump FILE writes the campaign's
// canonical dump, which is byte-identical across node counts and after
// kill -9/replay.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/warehouse"
)

func main() {
	os.Exit(run())
}

func run() int {
	design := flag.String("design", "pulpino", "design: pulpino, cpu, artificial, tiny")
	freq := flag.Float64("freq", 0.5, "target frequency, GHz")
	seed := flag.Int64("seed", 1, "run seed")
	effort := flag.Int("effort", 2, "synthesis effort 1..3")
	robot := flag.Bool("robot", false, "run as a Stage-1 robot engineer (retry to success)")
	sweep := flag.Int("sweep", 0, "run a crash-safe QOR sweep with this many seeds per frequency")
	parallel := flag.Int("parallel", 0, "sweep concurrency (0 = one per CPU); results identical at any setting")
	journalDir := flag.String("journal", "", "durable journal directory for -sweep (enables checkpoint/resume)")
	stageTimeout := flag.Duration("stage-timeout", 0, "per-stage hung-tool watchdog deadline (0 = off)")
	distNodes := flag.Int("dist-nodes", 0, "run -sweep through the distributed campaign service with this many loopback worker nodes (0 = single-process; stdout identical either way)")
	chaosProfile := flag.String("chaos-profile", "", "inject a deterministic network fault schedule into -dist-nodes: flaky, slow, partition, kill (stdout stays byte-identical)")
	chaosSeed := flag.Int64("chaos-seed", 0, "seed for the -chaos-profile coin schedule")
	speculate := flag.Bool("speculate", false, "overlap downstream flow stages on predicted upstream artifacts during -sweep (committed results identical to a non-speculative sweep)")
	specTol := flag.Float64("spec-tol", 0, "speculative commit tolerance on predicted stage scalars, percent (0 = default 1)")
	placeWorkers := flag.Int("place-workers", 0, "territory-parallel annealer workers (0 = serial placer; results identical at any count >= 1)")
	routeTiles := flag.Int("route-tiles", 0, "region-sharded global router tiles per side (0/1 = serial router)")
	routeWorkers := flag.Int("route-workers", 0, "concurrent regions for -route-tiles (0 = one per region, at most one per CPU; results identical at any setting)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON file of the run (view in chrome://tracing or Perfetto)")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics and /debug endpoints on this address (e.g. :8080)")
	spanRetention := flag.Int("span-retention", -1, "cap retained finished spans (0 = default 64k ≈ 8 MB bound, <0 = unbounded; overflow counts as droppedSpans in the trace file)")
	warehouseDir := flag.String("warehouse", "", "ingest one METRICS record per flow stage per point into a WAL-backed warehouse at DIR during -sweep (\"mem\" = in-memory only)")
	warehouseDump := flag.String("warehouse-dump", "", "write the campaign's canonical warehouse dump (byte-identical across node counts and crash/replay) to FILE after the sweep (- = stdout omitted; requires -warehouse)")
	flag.Parse()

	var wh *warehouse.Warehouse
	if *warehouseDir != "" {
		dir := *warehouseDir
		if dir == "mem" {
			dir = ""
		}
		var err error
		wh, err = warehouse.Open(dir, journal.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer wh.Close()
	}
	if *warehouseDump != "" && wh == nil {
		fmt.Fprintln(os.Stderr, "-warehouse-dump requires -warehouse")
		return 2
	}

	var aux map[string]http.Handler
	if wh != nil && *metricsAddr != "" {
		aux = map[string]http.Handler{
			"/warehouse/": http.StripPrefix("/warehouse", warehouse.NewHandler(wh)),
		}
	}
	flush, err := obs.SetupCfg(obs.Config{
		TraceFile:     *traceFile,
		MetricsAddr:   *metricsAddr,
		SpanRetention: *spanRetention,
		Aux:           aux,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer flush()

	var spec repro.DesignSpec
	switch *design {
	case "pulpino":
		spec = repro.PulpinoProxy(*seed)
	case "cpu":
		spec = repro.EmbeddedCPU(*seed)
	case "artificial":
		spec = repro.Artificial(*seed)
	case "tiny":
		spec = repro.TinyDesign(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown design %q\n", *design)
		return 2
	}
	d := repro.NewDesign(repro.DefaultLibrary(), spec)

	if *speculate && *sweep <= 0 {
		fmt.Fprintln(os.Stderr, "-speculate requires -sweep (a single run has no prior artifacts to predict from)")
		return 2
	}
	if *distNodes > 0 && *sweep <= 0 {
		fmt.Fprintln(os.Stderr, "-dist-nodes requires -sweep")
		return 2
	}
	if *chaosProfile != "" && *distNodes <= 0 {
		fmt.Fprintln(os.Stderr, "-chaos-profile requires -dist-nodes (chaos is injected into the network tier)")
		return 2
	}
	kernels := repro.FlowOptions{
		SynthEffort:  *effort,
		PlaceWorkers: *placeWorkers,
		RouteTiles:   *routeTiles,
		RouteWorkers: *routeWorkers,
	}
	if *sweep > 0 {
		return runSweep(d, *freq, *seed, kernels, sweepConfig{
			seeds:        *sweep,
			parallel:     *parallel,
			journalDir:   *journalDir,
			stageTimeout: *stageTimeout,
			speculate:    *speculate,
			specTol:      *specTol,
			distNodes:    *distNodes,
			chaosProfile: *chaosProfile,
			chaosSeed:    *chaosSeed,
			warehouse:    wh,
			whDump:       *warehouseDump,
		})
	}

	stats := d.ComputeStats()
	fmt.Printf("design %s: %d cells, %d registers, %d nets, depth %d\n",
		d.Name, stats.Cells, stats.Registers, stats.Nets, stats.MaxLevel)

	opts := kernels
	opts.TargetFreqGHz = *freq
	opts.Seed = *seed
	if *robot {
		out := (repro.Robot{Design: d, Base: opts}).Execute()
		fmt.Printf("robot: %d attempts, succeeded=%t, runtime proxy %.1f\n",
			len(out.Attempts), out.Succeeded, out.RuntimeProxy)
		for i, a := range out.Attempts {
			fmt.Printf("  attempt %d: %.3f GHz -> met=%t wns=%.1fps drvs=%d  %s\n",
				i, a.Options.TargetFreqGHz, a.Result.Met, a.Result.WNSPs, a.Result.Route.Final, a.Reason)
		}
		if !out.Succeeded {
			return 1
		}
		return 0
	}

	res := repro.RunFlow(d, opts)
	fmt.Printf("synth:   area %.1f um2, wns %.1f ps, %d upsized, %d buffers\n",
		res.Synth.AreaUm2, res.Synth.WNSPs, res.Synth.Upsized, res.Synth.BuffersAdded)
	fmt.Printf("place:   hpwl %.1f um (from %.1f)\n", res.Place.HPWLUm, res.Place.InitialHPWLUm)
	fmt.Printf("cts:     %d buffers, skew %.1f ps, latency %.1f ps\n",
		res.CTS.Buffers, res.CTS.MaxSkewPs, res.CTS.LatencyPs)
	fmt.Printf("groute:  wirelength %.1f um, overflow %.1f (peak %.1f), margin %.3f\n",
		res.Global.WirelengthUm, res.Global.OverflowTotal, res.Global.OverflowPeak, res.Global.CongestionMargin())
	fmt.Printf("droute:  %d -> %d DRVs over %d iterations (success=%t)\n",
		res.Route.DRVs[0], res.Route.Final, res.Route.IterationsRun, res.Route.Success)
	fmt.Printf("signoff: wns %.1f ps, tns %.1f ps, max freq %.3f GHz\n",
		res.Sign.WNSPs, res.Sign.TNSPs, res.Sign.MaxFreqGHz)
	fmt.Printf("QOR:     area %.1f um2, power %.1f nW, met=%t, runtime proxy %.1f\n",
		res.AreaUm2, res.PowerNW, res.Met, res.RuntimeProxy)
	if !res.Met {
		return 1
	}
	return 0
}

// sweepConfig carries the sweep-only flags into runSweep.
type sweepConfig struct {
	seeds        int
	parallel     int
	journalDir   string
	stageTimeout time.Duration
	speculate    bool
	specTol      float64
	distNodes    int
	chaosProfile string
	chaosSeed    int64
	warehouse    *warehouse.Warehouse
	whDump       string
}

// runSweep executes the crash-safe QOR sweep: nSeeds seeds at three
// target frequencies around base. Point lines go to stdout in point
// order — a stable byte stream — while journal/resume and speculation
// accounting go to stderr, so `diff` between a resumed (or speculative)
// and an uninterrupted (or non-speculative) sweep compares only
// results.
func runSweep(d *repro.Design, baseFreq float64, seed int64, base repro.FlowOptions, cfg sweepConfig) int {
	freqs := []float64{0.8 * baseFreq, baseFreq, 1.2 * baseFreq}
	seeds := make([]int64, cfg.seeds)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	scfg := repro.SweepConfig{
		Design:           d,
		Base:             base,
		Freqs:            freqs,
		Seeds:            seeds,
		Workers:          cfg.parallel,
		JournalDir:       cfg.journalDir,
		StageTimeout:     cfg.stageTimeout,
		Speculate:        cfg.speculate,
		SpecTolerancePct: cfg.specTol,
	}
	if cfg.warehouse != nil {
		scfg.Warehouse = cfg.warehouse
	}
	var res repro.SweepResult
	var err error
	if cfg.distNodes > 0 {
		var dstats dist.CoordStats
		// In dist mode the warehouse is fed over loopback HTTP by every
		// node, so leave the in-process observer unset.
		scfg.Warehouse = nil
		res, err = repro.DistSweep(repro.DistSweepConfig{
			SweepConfig:  scfg,
			Nodes:        cfg.distNodes,
			ChaosProfile: cfg.chaosProfile,
			ChaosSeed:    cfg.chaosSeed,
			Stats:        &dstats,
			Warehouse:    cfg.warehouse,
		})
		// Failure-handling accounting goes to stderr so stdout stays a
		// byte-diffable result stream under any fault schedule.
		fmt.Fprintf(os.Stderr, "dist: deaths=%d suspected=%d recovered=%d rejoined=%d reassigned=%d\n",
			dstats.Deaths, dstats.Suspected, dstats.Recovered, dstats.Rejoined, dstats.Reassigned)
		if cfg.chaosProfile != "" {
			metrics.Default.WritePrefix(os.Stderr, "chaos.")
		}
	} else {
		res, err = repro.Sweep(scfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep failed: %v\n", err)
		return 1
	}
	if cfg.journalDir != "" {
		rec := res.Recovery
		fmt.Fprintf(os.Stderr, "journal: %d segments, %d records recovered, %d torn tails (%d bytes dropped)\n",
			rec.Segments, rec.Records, rec.TornTails, rec.TornBytes)
		fmt.Fprintf(os.Stderr, "resume: replayed=%d skipped=%d corrupt=%d duplicate=%d\n",
			res.Resume.Replayed, res.Resume.SkippedUnknown, res.Resume.Corrupt, res.Resume.Duplicate)
		if res.JournalErr != nil {
			fmt.Fprintf(os.Stderr, "journal degraded: %v\n", res.JournalErr)
		}
	}
	if cfg.speculate {
		// Speculation accounting: chain and predictor counters mirrored
		// by the campaign (spec.chain.*, spec.stage.*, predict.*).
		metrics.Default.WritePrefix(os.Stderr, "spec.")
		metrics.Default.WritePrefix(os.Stderr, "predict.")
	}
	if cfg.warehouse != nil {
		st := cfg.warehouse.Stats()
		fmt.Fprintf(os.Stderr, "warehouse: %d records (%d deduped, %d replayed, %d torn tails)\n",
			st.Records, st.Deduped, st.Replayed, st.Torn)
		if cfg.whDump != "" {
			pts, perr := repro.CampaignPoints(scfg)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "warehouse dump: %v\n", perr)
				return 1
			}
			f, ferr := os.Create(cfg.whDump)
			if ferr != nil {
				fmt.Fprintf(os.Stderr, "warehouse dump: %v\n", ferr)
				return 1
			}
			cfg.warehouse.DumpCanonical(f, campaign.ID(pts))
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "warehouse dump: %v\n", cerr)
				return 1
			}
		}
	}
	res.Print(os.Stdout)
	return 0
}
