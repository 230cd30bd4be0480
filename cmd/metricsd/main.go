// Command metricsd runs the METRICS server of Fig. 11 — a memory-only
// warehouse at /warehouse/ beside the live /metrics and /debug
// endpoints — until SIGINT or SIGTERM. The Fig. 11 loop itself (an
// instrumented campaign shipping records to such a server, then data
// mining) is `sprflow -fig fig11`.
//
// Usage:
//
//	metricsd -addr 127.0.0.1:8800
//	metricsd -addr 127.0.0.1:8800 -frontdoor [-campaign-slots 2]
//
// With -frontdoor the server also accepts campaign submissions:
//
//	POST /v1/campaigns {"tenant":"t1","spec":{"design":"tiny","freq":0.5,
//	                    "seed":1,"seeds":4,"workers":2,"dist_nodes":0}}
//	GET  /v1/campaigns              all campaigns
//	GET  /v1/campaigns/{id}         one campaign's status + summary
//	GET  /v1/campaigns/{id}/events  SSE point/state stream
//
// Admission is bounded (-campaign-queue) and running slots are shared
// fairly across tenants (-campaign-slots). A spec with dist_nodes > 0
// runs through the distributed campaign service over loopback nodes,
// each of which also serves /stats, /metrics, /debug/{spans,hist} and
// /debug/pprof. A spec is bounded before anything is built: seeds at
// most 1024, workers at most 256, dist_nodes at most 16 and effort
// 1..3; one outside ends the campaign failed, with the reason.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/warehouse"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8800", "listen address")
	frontdoor := flag.Bool("frontdoor", false, "accept campaign submissions on /v1/campaigns")
	campaignSlots := flag.Int("campaign-slots", 1, "concurrently running campaigns (front door)")
	campaignQueue := flag.Int("campaign-queue", 16, "max queued campaigns before 429 (front door)")
	flag.Parse()
	// SIGTERM (kill(1)'s and orchestrators' default) drains like ^C.
	// Armed before the listening line, so a signal sent on seeing it
	// always takes the drain path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	wh, err := warehouse.Open("", journal.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := metrics.NewServer()
	srv.Aux = map[string]http.Handler{"/warehouse/": http.StripPrefix("/warehouse", warehouse.NewHandler(wh))}
	if *frontdoor {
		srv.FrontDoor = metrics.NewFrontDoor(metrics.RunnerFunc(runCampaignSpec), *campaignSlots, *campaignQueue)
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("METRICS server listening on %s\n", bound)
	fmt.Printf("POST JSON record arrays to http://%s/warehouse/v1/records; query /warehouse/v1/records and /stats\n", bound)
	if *frontdoor {
		fmt.Printf("campaign front door on http://%s/v1/campaigns (%d slots, queue %d)\n",
			bound, *campaignSlots, *campaignQueue)
	}
	<-sig
	signal.Stop(sig)
	srv.Close()
	st := wh.Stats()
	wh.Close()
	fmt.Printf("shutting down: %d records stored, %d deduped\n", st.Records, st.Deduped)
}

// Front-door bounds. A POSTed spec is network bytes, so every number
// that sizes memory (seeds: 3 points each), goroutines (workers per
// node), listeners (dist_nodes) or work (effort: 6 synth passes each)
// is checked against these before anything is allocated. The CLIs'
// flags stay unbounded.
const (
	maxSpecSeeds     = 1024
	maxSpecWorkers   = 256
	maxSpecDistNodes = 16
	maxSpecEffort    = 3
)

// campaignSpec is the front door's submission payload: the sweep the
// sprflow and campd CLIs take as flags, plus its deployment shape.
type campaignSpec struct {
	repro.SweepSpec
	Workers   int `json:"workers"`
	DistNodes int `json:"dist_nodes"`
}

// decodeCampaignSpec parses a submitted spec, fills the front door's
// defaults and rejects a spec with any number outside the bounds.
func decodeCampaignSpec(raw json.RawMessage) (campaignSpec, error) {
	var spec campaignSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("bad campaign spec: %w", err)
	}
	if spec.Design == "" {
		spec.Design = "tiny"
	}
	if spec.Freq <= 0 {
		spec.Freq = 0.5
	}
	if spec.Seeds <= 0 {
		spec.Seeds = 2
	}
	if spec.Effort == 0 {
		spec.Effort = 2
	}
	switch {
	case spec.Seeds > maxSpecSeeds:
		return spec, fmt.Errorf("bad campaign spec: seeds %d above %d", spec.Seeds, maxSpecSeeds)
	case spec.Workers > maxSpecWorkers:
		return spec, fmt.Errorf("bad campaign spec: workers %d above %d", spec.Workers, maxSpecWorkers)
	case spec.DistNodes > maxSpecDistNodes:
		return spec, fmt.Errorf("bad campaign spec: dist_nodes %d above %d", spec.DistNodes, maxSpecDistNodes)
	case spec.Effort < 1 || spec.Effort > maxSpecEffort:
		return spec, fmt.Errorf("bad campaign spec: effort %d outside 1..%d", spec.Effort, maxSpecEffort)
	}
	return spec, nil
}

// campaignSummary is the terminal summary stored on the campaign.
type campaignSummary struct {
	Points int `json:"points"`
	Met    int `json:"met"`
}

// runCampaignSpec is the injected CampaignRunner: it decodes the opaque
// spec and runs the sweep — distributed when dist_nodes asks for it.
// Point events are emitted after the run (the engine reports results as
// a batch); the status endpoint remains the lossless view.
func runCampaignSpec(ctx context.Context, raw json.RawMessage, onPoint func(index, total int)) (json.RawMessage, error) {
	spec, err := decodeCampaignSpec(raw)
	if err != nil {
		return nil, err
	}
	scfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	scfg.Workers = spec.Workers
	var res repro.SweepResult
	if spec.DistNodes > 0 {
		res, err = repro.DistSweep(repro.DistSweepConfig{SweepConfig: scfg, Nodes: spec.DistNodes})
	} else {
		res, err = repro.Sweep(scfg)
	}
	if err != nil {
		return nil, err
	}
	met := 0
	for i, p := range res.Points {
		onPoint(i, len(res.Points))
		if p.Met {
			met++
		}
	}
	out, err := json.Marshal(campaignSummary{Points: len(res.Points), Met: met})
	if err != nil {
		return nil, err
	}
	return out, nil
}
