package repro

// Integration test: the full "no human in the loop" pipeline the paper
// sketches, run end to end on one design — Stage 1 robot closure,
// Stage 2 orchestrated search, Stage 3 doomed-run pruning, Stage 4
// METRICS-fed adaptation — with the infrastructure (METRICS warehouse,
// anonymized sharing) in the loop.

import (
	"net/http"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/logfile"
	"repro/internal/mdp"
	"repro/internal/metrics"
	"repro/internal/share"
	"repro/internal/warehouse"
)

func TestFullRoadmapPipeline(t *testing.T) {
	design := NewDesign(DefaultLibrary(), TinyDesign(99))

	// A WAL-backed METRICS warehouse served on loopback collects
	// everything the pipeline does.
	dir := t.TempDir()
	wh, err := warehouse.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := metrics.NewServer()
	srv.Aux = map[string]http.Handler{"/warehouse/": http.StripPrefix("/warehouse", warehouse.NewHandler(wh))}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Stage 1: a robot closes an aggressive target without a human. The
	// probe run ships its records over HTTP.
	probeOpts := flow.Options{TargetFreqGHz: 0.3, Seed: 1}
	emit := warehouse.NewEmitter("probe", "local", []string{probeOpts.Key()}, warehouse.NewClient("http://"+addr+"/warehouse"))
	probe := flow.RunObserved(design, probeOpts, emit)
	emit.Flush()
	robot := core.Robot{
		Design: design,
		Base:   flow.Options{TargetFreqGHz: probe.MaxFreqGHz * 1.6, Seed: 2},
	}
	rout := robot.Execute()
	if !rout.Succeeded {
		t.Fatalf("stage 1: robot failed after %d attempts", len(rout.Attempts))
	}
	stage1Freq := rout.Final.Options.TargetFreqGHz

	// Stage 2: orchestrated search should do at least as well as the
	// single robot's trajectory (it explores the same ladder and more).
	arms := []float64{stage1Freq * 0.8, stage1Freq, stage1Freq * 1.1, stage1Freq * 1.4}
	sres, err := core.Search(design, flow.Options{Seed: 3}, flow.Constraints{}, core.SearchConfig{
		Freqs: arms, Iterations: 6, Licenses: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sres.BestFreqGHz < stage1Freq*0.8 {
		t.Errorf("stage 2 best %v below the slowest arm", sres.BestFreqGHz)
	}

	// Stage 3: a strategy card trained on fresh logfiles supervises a
	// congested campaign and saves schedule.
	train := logfile.Generate(logfile.CorpusSpec{Name: "artificial", Runs: 120, Seed: 4, Designs: 2})
	card := mdp.BuildCard(train, mdp.CardConfig{})
	runner := core.PrunedRunner{Card: card, ConsecutiveStops: 3}
	study := core.StudyPruning(design, flow.Options{
		TargetFreqGHz: 0.3, Seed: 5, TracksPerEdge: 1.2,
	}, runner, 5)
	if study.RuntimePruned > study.RuntimeUnpruned {
		t.Error("stage 3: pruning increased runtime")
	}

	// Stage 4: the adaptive agent, writing into the same warehouse,
	// converges to a met target after an infeasible start.
	agent := core.Agent{Design: design, Warehouse: wh, Start: flow.Options{TargetFreqGHz: stage1Freq * 2, Seed: 6}}
	rounds := agent.RunRounds(4)
	lastMet := rounds[len(rounds)-1].Met
	backedOff := rounds[len(rounds)-1].TargetFreqGHz < rounds[0].TargetFreqGHz
	if !lastMet && !backedOff {
		t.Error("stage 4: agent neither met nor backed off")
	}

	// Infrastructure: the warehouse saw the instrumented runs and can be
	// mined; the design can be shared without leaking identifiers and
	// still produce comparable flow results.
	if wh.Stats().Records == 0 {
		t.Fatal("METRICS warehouse empty after the pipeline")
	}
	best, ok := warehouse.BestTargetFreq(wh, design.Name)
	if !ok {
		t.Error("miner found no met run despite stage-4 adaptation")
	}
	anon := share.Anonymize(design, share.Obfuscate, 7)
	if leaks := share.LeakCheck(design, anon); len(leaks) != 0 {
		t.Fatalf("sharing leaked: %v", leaks)
	}
	ares := RunFlow(anon, flow.Options{TargetFreqGHz: 0.3, Seed: 8})
	if ares.AreaUm2 <= 0 {
		t.Error("anonymized design failed to implement")
	}

	// The warehouse reopens from its WAL with mining intact.
	recs := wh.Select(warehouse.Query{})
	srv.Close()
	if err := wh.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := warehouse.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Select(warehouse.Query{}); !reflect.DeepEqual(got, recs) {
		t.Errorf("reopened warehouse holds %d records, want the %d written", len(got), len(recs))
	}
	if again, _ := warehouse.BestTargetFreq(reopened, design.Name); again != best {
		t.Errorf("mining diverged after reopen: %v vs %v", again, best)
	}
}
