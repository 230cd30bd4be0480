// Command sprflow runs the simulated SP&R implementation flow on a
// synthetic design and prints the QOR report — the atomic tool run every
// experiment in this repository drives — and regenerates the paper's
// artefacts from those runs.
//
// Usage:
//
//	sprflow -fig fig7|table1|...|all [-scale small|paper] [-seed 1] [-parallel N]
//	sprflow -design pulpino -freq 0.6 -seed 1 [-effort 2] [-robot]
//	sprflow -design tiny -sweep 4 [-parallel N] [-journal DIR]
//	sprflow -design tiny -sweep 4 -dist-nodes 4 [-journal DIR]
//	sprflow -design tiny -sweep 4 -dist-nodes 4 -chaos-profile partition -chaos-seed 7
//	sprflow -design tiny -sweep 4 -trace trace.json -metrics-addr :8080
//
// A -fig prints one paper artefact (a figure, table or study, named as
// in repro.Artifacts) at -scale, or every artefact in paper order, each
// followed by one blank line. The output is identical at any
// -parallel. The logfile corpora behind Figs. 9-10, Table 1 and the
// doomed-run studies are generated once per process and shared.
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
	"slices"

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
	fig := flag.String("fig", "", "print a paper artefact (fig1 ... schedule, or all) instead of running a flow")
	scale := flag.String("scale", "small", "artefact scale for -fig: small or paper")
	design := flag.String("design", "pulpino", "design: pulpino, cpu, artificial, tiny")
	freq := flag.Float64("freq", 0.5, "target frequency, GHz")
	seed := flag.Int64("seed", 1, "run seed")
	effort := flag.Int("effort", 2, "synthesis effort 1..3")
	robot := flag.Bool("robot", false, "run as a Stage-1 robot engineer (retry to success)")
	sweep := flag.Int("sweep", 0, "run a crash-safe QOR sweep with this many seeds per frequency")
	parallel := flag.Int("parallel", 0, "sweep or -fig concurrency (0 = one per CPU); results identical at any setting")
	journalDir := flag.String("journal", "", "durable journal directory for -sweep (enables checkpoint/resume)")
	stageTimeout := flag.Duration("stage-timeout", 0, "per-stage hung-tool watchdog deadline (0 = off)")
	distNodes := flag.Int("dist-nodes", 0, "run -sweep through the distributed campaign service with this many loopback worker nodes (0 = single-process; stdout identical either way)")
	chaosProfile := flag.String("chaos-profile", "", "inject a deterministic network fault schedule into -dist-nodes: flaky, slow, partition, kill (stdout stays byte-identical)")
	chaosSeed := flag.Int64("chaos-seed", 0, "seed for the -chaos-profile coin schedule")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON file of the run (view in chrome://tracing or Perfetto)")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics and /debug endpoints on this address (e.g. :8080)")
	spanRetention := flag.Int("span-retention", -1, "cap retained finished spans (0 = default 64k ≈ 8 MB bound, <0 = unbounded; overflow counts as droppedSpans in the trace file)")
	warehouseDir := flag.String("warehouse", "", "ingest one METRICS record per flow stage per point into a WAL-backed warehouse at DIR during -sweep (\"mem\" = in-memory only)")
	warehouseDump := flag.String("warehouse-dump", "", "write the campaign's canonical warehouse dump (byte-identical across node counts and crash/replay) to FILE after the sweep (- = stdout omitted; requires -warehouse)")
	flag.Parse()

	if *fig != "" && (*sweep > 0 || *robot || *distNodes > 0 || *warehouseDir != "" || *journalDir != "") {
		fmt.Fprintln(os.Stderr, "-fig runs alone: drop -sweep, -robot, -dist-nodes, -warehouse and -journal")
		return 2
	}

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

	if *fig != "" {
		return runFigs(*fig, *scale, *seed, *parallel)
	}

	scfg, err := repro.SweepSpec{
		Design: *design, Freq: *freq, Seed: *seed, Seeds: *sweep, Effort: *effort,
	}.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	d := scfg.Design

	if *distNodes > 0 && *sweep <= 0 {
		fmt.Fprintln(os.Stderr, "-dist-nodes requires -sweep")
		return 2
	}
	if *chaosProfile != "" && *distNodes <= 0 {
		fmt.Fprintln(os.Stderr, "-chaos-profile requires -dist-nodes (chaos is injected into the network tier)")
		return 2
	}
	if *sweep > 0 {
		scfg.Workers = *parallel
		scfg.JournalDir = *journalDir
		scfg.StageTimeout = *stageTimeout
		scfg.Warehouse = wh
		return runSweep(scfg, sweepConfig{
			distNodes:    *distNodes,
			chaosProfile: *chaosProfile,
			chaosSeed:    *chaosSeed,
			whDump:       *warehouseDump,
		})
	}

	stats := d.ComputeStats()
	fmt.Printf("design %s: %d cells, %d registers, %d nets, depth %d\n",
		d.Name, stats.Cells, stats.Registers, stats.Nets, stats.MaxLevel)

	opts := scfg.Base
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

// runFigs prints the artefact named fig, or every artefact for "all".
func runFigs(fig, scale string, seed int64, parallel int) int {
	var s repro.Scale
	switch scale {
	case "small":
		s = repro.Small
	case "paper":
		s = repro.Paper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small or paper)\n", scale)
		return 2
	}
	arts := repro.Artifacts()
	if fig != "all" {
		arts = slices.DeleteFunc(arts, func(a repro.Artifact) bool { return a.Name != fig })
		if len(arts) == 0 {
			fmt.Fprintf(os.Stderr, "unknown artefact %q\n", fig)
			return 2
		}
	}
	repro.SetWorkers(parallel)
	for _, a := range arts {
		if err := a.Run(os.Stdout, s, seed); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
			return 1
		}
		if fig == "all" {
			fmt.Println()
		}
	}
	return 0
}

// sweepConfig carries the dist and warehouse-dump flags into runSweep.
type sweepConfig struct {
	distNodes    int
	chaosProfile string
	chaosSeed    int64
	whDump       string
}

// runSweep executes the crash-safe QOR sweep. Point lines go to stdout
// in point order — a stable byte stream — while journal/resume
// accounting goes to stderr, so `diff` between a resumed and an
// uninterrupted sweep compares only results.
func runSweep(scfg repro.SweepConfig, cfg sweepConfig) int {
	var res repro.SweepResult
	var err error
	if cfg.distNodes > 0 {
		var dstats dist.CoordStats
		res, err = repro.DistSweep(repro.DistSweepConfig{
			SweepConfig:  scfg,
			Nodes:        cfg.distNodes,
			ChaosProfile: cfg.chaosProfile,
			ChaosSeed:    cfg.chaosSeed,
			Stats:        &dstats,
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
	if scfg.JournalDir != "" {
		rec := res.Recovery
		fmt.Fprintf(os.Stderr, "journal: %d segments, %d records recovered, %d torn tails (%d bytes dropped)\n",
			rec.Segments, rec.Records, rec.TornTails, rec.TornBytes)
		fmt.Fprintf(os.Stderr, "resume: replayed=%d skipped=%d corrupt=%d duplicate=%d\n",
			res.Resume.Replayed, res.Resume.SkippedUnknown, res.Resume.Corrupt, res.Resume.Duplicate)
		if res.JournalErr != nil {
			fmt.Fprintf(os.Stderr, "journal degraded: %v\n", res.JournalErr)
		}
	}
	if scfg.Warehouse != nil {
		st := scfg.Warehouse.Stats()
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
			scfg.Warehouse.DumpCanonical(f, campaign.ID(pts))
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "warehouse dump: %v\n", cerr)
				return 1
			}
		}
	}
	res.Print(os.Stdout)
	return 0
}
