// METRICS pipeline: serve a METRICS warehouse, instrument a flow
// campaign so every tool step ships a record to it as JSON over HTTP,
// then mine the warehouse for option guidance and feed it back into the
// next runs — the full Fig. 11 loop, including the Stage-4 adaptive
// agent.
package main

import (
	"fmt"
	"net/http"

	"repro"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/warehouse"
)

func main() {
	// A memory-only warehouse served at /warehouse/ on an ephemeral port.
	wh, err := warehouse.Open("", journal.Options{})
	if err != nil {
		panic(err)
	}
	defer wh.Close()
	srv := metrics.NewServer()
	srv.Aux = map[string]http.Handler{"/warehouse/": http.StripPrefix("/warehouse", warehouse.NewHandler(wh))}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	fmt.Printf("METRICS server on %s\n\n", addr)

	// An instrumented campaign over a ladder of targets, one point per run.
	design := repro.NewDesign(repro.DefaultLibrary(), repro.TinyDesign(5))
	probe := repro.RunFlow(design, repro.FlowOptions{TargetFreqGHz: 0.3, Seed: 1})
	fmax := probe.MaxFreqGHz
	var ladder []flow.Options
	var keys []string
	for i, f := range []float64{fmax * 0.6, fmax * 0.8, fmax * 0.95, fmax * 1.1} {
		for s := 0; s < 3; s++ {
			opts := flow.Options{TargetFreqGHz: f, Seed: int64(i*10 + s)}
			ladder = append(ladder, opts)
			keys = append(keys, opts.Key())
		}
	}
	emit := warehouse.NewEmitter("ladder", "local", keys, warehouse.NewClient("http://"+addr+"/warehouse"))
	for _, opts := range ladder {
		flow.RunObserved(design, opts, emit)
	}
	emit.Flush()
	fmt.Printf("campaign: %d runs shipped, warehouse holds %d records\n\n", len(ladder), wh.Stats().Records)

	// Mining: sensitivities, best options, achievable frequency.
	if corr, err := warehouse.Sensitivity(wh, "synth", "area"); err == nil {
		fmt.Printf("mined sensitivity target->area: %+.3f\n", corr)
	}
	if best, ok := warehouse.BestTargetFreq(wh, design.Name); ok {
		fmt.Printf("best met target so far:        %.3f GHz\n", best)
	}
	if lo, hi, err := warehouse.PrescribeFreqRange(wh, design.Name); err == nil {
		fmt.Printf("prescribed achievable range:   %.3f - %.3f GHz\n", lo, hi)
	}

	// Stage 4: the adaptive agent closes the loop, retuning its own
	// options from the miner after every run.
	fmt.Println("\nadaptive agent (starts too aggressive, self-corrects):")
	agent := core.Agent{
		Design:    design,
		Warehouse: wh,
		Start:     repro.FlowOptions{TargetFreqGHz: fmax * 1.4, Seed: 100},
	}
	for _, round := range agent.RunRounds(5) {
		fmt.Printf("  round %d: target %.3f GHz -> met=%t (WNS %.1f ps)\n",
			round.Round, round.TargetFreqGHz, round.Met, round.WNSPs)
	}
}
