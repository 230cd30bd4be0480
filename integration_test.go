package repro

// Integration test: the full "no human in the loop" pipeline the paper
// sketches, run end to end on one design — Stage 1 robot closure,
// Stage 2 orchestrated search, Stage 3 live doomed-run pruning, Stage 4
// a Q-learning flow tuner — with the infrastructure (METRICS warehouse,
// anonymized sharing) in the loop.

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/doom"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/logfile"
	"repro/internal/mdp"
	"repro/internal/metrics"
	"repro/internal/route"
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
	// The robot's closing run ships its records too, as a one-point
	// campaign: the warehouse now holds a met run for the miner.
	final := rout.Attempts[len(rout.Attempts)-1].Options
	pts := []campaign.Point{campaign.NewPoint(design, campaign.KeyFor(design), final)}
	emit = warehouse.NewEmitter(campaign.ID(pts), "local", PointKeys(pts), warehouse.NewClient("http://"+addr+"/warehouse"))
	if !flow.RunObserved(design, final, emit).Met {
		t.Fatal("stage 1: the robot's final run did not meet timing when rerun")
	}
	emit.Flush()

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
	// second corpus live. Runs it stops end early; every run it lets
	// finish is its unsupervised twin.
	train := logfile.Generate(logfile.CorpusSpec{Name: "artificial", Runs: 120, Seed: 4, Designs: 2})
	sup := doom.New(mdp.BuildCard(train), 2)
	spec := logfile.CorpusSpec{Name: "embedded-cpu", Runs: 40, Seed: 5, Designs: 2}
	baseline := logfile.Generate(spec)
	spec.Supervise = func(id int, name string) route.IterHook { return sup.Hook(fmt.Sprintf("%s#%d", name, id)) }
	live := logfile.Generate(spec)
	stopped := 0
	for i := range live {
		if live[i].StoppedAt > 0 {
			stopped++
			if len(live[i].DRVs) >= len(baseline[i].DRVs) {
				t.Errorf("stage 3: run %d stopped at %d but ran all %d iterations", i, live[i].StoppedAt, len(baseline[i].DRVs)-1)
			}
		} else if !reflect.DeepEqual(live[i].DRVs, baseline[i].DRVs) {
			t.Errorf("stage 3: unstopped run %d diverged from its baseline", i)
		}
	}
	if _, stops, _ := sup.Stats(); stopped == 0 || int(stops) != stopped {
		t.Errorf("stage 3: %d runs stopped, supervisor counted %d", stopped, stops)
	}

	// Stage 4: the Q-learning tuner, started at the robot's closing
	// target, turns run feedback into its action values.
	agent := core.NewQAgent()
	episodes := agent.Train(design, flow.Options{TargetFreqGHz: stage1Freq, Seed: 6}, 3, 4, 6)
	if len(episodes) != 3 {
		t.Fatalf("stage 4: %d episodes, want 3", len(episodes))
	}
	if agent.Q == core.NewQAgent().Q {
		t.Error("stage 4: no run feedback reached the Q table")
	}

	// Infrastructure: the warehouse saw the instrumented runs and can be
	// mined; the design can be shared without leaking identifiers and
	// still produce comparable flow results.
	if wh.Stats().Records == 0 {
		t.Fatal("METRICS warehouse empty after the pipeline")
	}
	best, ok := warehouse.BestTargetFreq(wh, design.Name)
	if !ok {
		t.Error("miner found no met run despite the robot's closing run")
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
