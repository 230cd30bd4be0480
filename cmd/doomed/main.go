// Command doomed reproduces the paper's doomed-run prediction
// experiments: the DRV trajectories of Fig. 9, the MDP strategy card of
// Fig. 10, and the consecutive-STOP error table (Table 1).
//
// Usage:
//
//	doomed -fig9          # representative DRV trajectories
//	doomed -card          # the strategy card
//	doomed -table         # the Type1/Type2 error table
//	doomed -doomed-live   # live abort: card STOPs runs mid-route and
//	                      # reports reclaimed license-iterations vs the
//	                      # post-hoc baseline
//	doomed -speculate     # speculative stage overlap: a downstream flow
//	                      # sweep run against the artifact-memory oracle,
//	                      # with deterministic hit/commit accounting and
//	                      # zero QoR drift vs the reference
//	doomed -all           # everything
//	      [-scale small|paper] [-seed 1] [-parallel N]
//	      [-journal DIR]
//	      [-trace trace.json] [-metrics-addr :8080]
//
// With -journal DIR the logfile corpora behind every experiment are
// generated crash-safely: each completed detailed-route run is durably
// appended to a write-ahead journal, and a rerun after a kill with the
// same -journal replays them bit-identically instead of regenerating —
// at paper scale that is thousands of router runs.
//
// With -trace FILE the corpus generation is traced (route iterations,
// journal appends) and a Chrome trace_event JSON file is written at
// exit; -metrics-addr serves the live /metrics and /debug endpoints.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	fig9 := flag.Bool("fig9", false, "print DRV trajectories (Fig. 9)")
	card := flag.Bool("card", false, "print the MDP strategy card (Fig. 10)")
	table := flag.Bool("table", false, "print the consecutive-STOP error table (Table 1)")
	live := flag.Bool("doomed-live", false, "run the test corpus under live MDP supervision and report reclaimed license-iterations")
	speculate := flag.Bool("speculate", false, "run a downstream flow sweep with speculative stage overlap and report deterministic hit/commit accounting")
	all := flag.Bool("all", false, "print everything")
	scale := flag.String("scale", "small", "experiment scale: small or paper")
	seed := flag.Int64("seed", 1, "experiment seed")
	parallel := flag.Int("parallel", 0, "concurrent runs (0 = one per CPU); results are identical at any setting")
	placeWorkers := flag.Int("place-workers", 0, "territory-parallel annealer workers for corpus substrates (0 = serial placer)")
	routeTiles := flag.Int("route-tiles", 0, "region-sharded global router tiles per side for corpus substrates (0/1 = serial router)")
	journalDir := flag.String("journal", "", "durable corpus journal directory (enables checkpoint/resume)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON file of the run (view in chrome://tracing or Perfetto)")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics and /debug endpoints on this address (e.g. :8080)")
	flag.Parse()

	flush, err := obs.Setup(*traceFile, *metricsAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer flush()
	repro.SetWorkers(*parallel)
	repro.SetKernelParallel(*placeWorkers, *routeTiles)
	repro.SetCorpusJournal(*journalDir)
	s := repro.Small
	if *scale == "paper" {
		s = repro.Paper
	}
	if !*fig9 && !*card && !*table && !*live && !*speculate && !*all {
		*all = true
	}
	if *all || *fig9 {
		repro.Fig9(s, *seed).Print(os.Stdout)
		fmt.Println()
	}
	if *all || *card {
		repro.Fig10(s, *seed).Print(os.Stdout)
		fmt.Println()
	}
	if *all || *table {
		repro.Table1(s, *seed).Print(os.Stdout)
		if *all || *live {
			fmt.Println()
		}
	}
	if *all || *live {
		repro.DoomedLive(s, *seed).Print(os.Stdout)
	}
	if *all || *speculate {
		if *all || *live {
			fmt.Println()
		}
		repro.SpecOverlap(s, *seed).Print(os.Stdout)
	}
	if *journalDir != "" {
		// Journal accounting goes to stderr so experiment output stays
		// byte-comparable between resumed and uninterrupted runs.
		metrics.Default.WritePrefix(os.Stderr, "logfile.journal.")
		if err := repro.CorpusJournalErr(); err != nil {
			fmt.Fprintf(os.Stderr, "journal degraded: %v\n", err)
			return 1
		}
	}
	return 0
}
