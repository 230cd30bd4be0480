package repro

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/hmm"
	"repro/internal/journal"
	"repro/internal/logfile"
	"repro/internal/mdp"
	"repro/internal/metrics"
	"repro/internal/warehouse"
)

// corpusSizes returns (training runs, testing runs) per scale; Paper
// matches the paper's 1200 artificial-layout and 3742 embedded-CPU
// logfiles.
func corpusSizes(scale Scale) (train, test, designs int) {
	if scale == Paper {
		return 1200, 3742, 6
	}
	return 160, 240, 2
}

// corpusKey names one Corpora pair. The worker count is not part of it:
// a corpus is bit-identical at any worker count (logfile.CorpusSpec).
type corpusKey struct {
	scale Scale
	seed  int64
}

// corpora memoizes Corpora: corpusKey -> func() ([]logfile.Run, []logfile.Run).
var corpora sync.Map

// Corpora generates the training and testing logfile corpora, once per
// (scale, seed) per process. Every caller — fig9, fig10, table1,
// detector, doomed-live and ropes — shares the same runs, so they are
// read-only: a caller that needs to change a run copies it first.
func Corpora(scale Scale, seed int64) (train, test []logfile.Run) {
	f, _ := corpora.LoadOrStore(corpusKey{scale, seed}, sync.OnceValues(func() (train, test []logfile.Run) {
		nTrain, nTest, designs := corpusSizes(scale)
		train = logfile.Generate(logfile.CorpusSpec{
			Name: "artificial", Runs: nTrain, Seed: seed, Designs: designs,
			Workers: WorkerCount(),
		})
		test = logfile.Generate(logfile.CorpusSpec{
			Name: "embedded-cpu", Runs: nTest, Seed: seed + 1, Designs: designs,
			Workers: WorkerCount(),
		})
		return train, test
	}))
	return f.(func() ([]logfile.Run, []logfile.Run))()
}

// ---------------------------------------------------------------------
// Figure 9: DRV progressions of the detailed router.

// Fig9Result holds representative DRV-vs-iteration series.
type Fig9Result struct {
	// Series maps a label (success/doomed flavor) to a DRV series.
	Labels []string
	Series [][]int
}

// Fig9 extracts four representative trajectories from a corpus: a clean
// success, a slow success, a plateauing doomed run, and a high doomed
// run — the four curves of the paper's figure.
func Fig9(scale Scale, seed int64) Fig9Result {
	runs, _ := Corpora(scale, seed)
	var res Fig9Result
	add := func(label string, r *logfile.Run) {
		if r != nil {
			res.Labels = append(res.Labels, label)
			res.Series = append(res.Series, r.DRVs)
		}
	}
	// Adaptive selection: the cleanest and slowest success, and the
	// lowest- and highest-plateau doomed runs (the paper's green,
	// orange and red flavors).
	var bestSucc, worstSucc, lowDoom, highDoom *logfile.Run
	mid := func(r *logfile.Run) int { return r.DRVs[len(r.DRVs)/2] }
	for i := range runs {
		r := &runs[i]
		if r.Success {
			// Fastest decay = lowest mid-run DRVs; slowest = highest.
			if bestSucc == nil || mid(r) < mid(bestSucc) {
				bestSucc = r
			}
			if worstSucc == nil || mid(r) > mid(worstSucc) {
				worstSucc = r
			}
		} else {
			if lowDoom == nil || r.Final < lowDoom.Final {
				lowDoom = r
			}
			if highDoom == nil || r.Final > highDoom.Final {
				highDoom = r
			}
		}
	}
	add("success/fast (green)", bestSucc)
	if worstSucc != nil && (bestSucc == nil || worstSucc.ID != bestSucc.ID) {
		add("success/slow", worstSucc)
	}
	add("doomed/plateau (orange)", lowDoom)
	if highDoom != nil && (lowDoom == nil || highDoom.ID != lowDoom.ID) {
		add("doomed/high (red)", highDoom)
	}
	return res
}

// Print writes the series on a log10 scale like the paper's plot.
func (r Fig9Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 9: DRV progressions (log10 #DRVs per iteration)\n")
	for i, label := range r.Labels {
		fmt.Fprintf(w, "%-26s", label)
		for _, d := range r.Series[i] {
			fmt.Fprintf(w, " %5.1f", math.Log10(float64(d)+1))
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------
// Figure 10: the MDP strategy card.

// Fig10Result is the trained card.
type Fig10Result struct {
	Card       *mdp.Card
	TrainRuns  int
	TrainStats logfile.Stats
}

// Fig10 trains the strategy card on the artificial-layout corpus (the
// paper derives its card from 1400 industry logfiles).
func Fig10(scale Scale, seed int64) Fig10Result {
	train, _ := Corpora(scale, seed)
	card := mdp.BuildCard(train)
	return Fig10Result{Card: card, TrainRuns: len(train), TrainStats: logfile.Summarize(train)}
}

// Print renders the card.
func (r Fig10Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 10: MDP strategy card from %d logfiles (%d success / %d doomed)\n",
		r.TrainRuns, r.TrainStats.Successes, r.TrainStats.Doomed)
	fmt.Fprintf(w, "rows: delta bin +%d..-%d (top to bottom); cols: violation bin 0..%d\n",
		mdp.DeltaSpan, mdp.DeltaSpan, mdp.ViolBins-1)
	fmt.Fprintf(w, "S/s = STOP, ./, = GO (lowercase = footnote-5 fill-in)\n")
	fmt.Fprint(w, r.Card.String())
}

// ---------------------------------------------------------------------
// Table 1: consecutive-STOP error rates.

// Table1Row is one row of the paper's error table.
type Table1Row struct {
	ConsecutiveStops int
	Train            mdp.EvalResult
	Test             mdp.EvalResult
}

// Table1Result is the full table.
type Table1Result struct {
	Rows      []Table1Row
	TrainRuns int
	TestRuns  int
}

// Table1 trains the card on the artificial corpus and evaluates 1/2/3
// consecutive-STOP policies on both corpora.
func Table1(scale Scale, seed int64) Table1Result {
	train, test := Corpora(scale, seed)
	card := mdp.BuildCard(train)
	res := Table1Result{TrainRuns: len(train), TestRuns: len(test)}
	for _, k := range []int{1, 2, 3} {
		res.Rows = append(res.Rows, Table1Row{
			ConsecutiveStops: k,
			Train:            card.Evaluate(train, k),
			Test:             card.Evaluate(test, k),
		})
	}
	return res
}

// Print writes the table in the paper's layout.
func (r Table1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 1: doomed-run policy errors (train %d logfiles, test %d logfiles; success = <200 DRVs)\n",
		r.TrainRuns, r.TestRuns)
	fmt.Fprintf(w, "%-10s | %8s %7s %7s | %8s %7s %7s | %10s\n",
		"", "trainErr", "type1", "type2", "testErr", "type1", "type2", "saved iters")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d STOP%s    | %7.2f%% %7d %7d | %7.2f%% %7d %7d | %10d\n",
			row.ConsecutiveStops, plural(row.ConsecutiveStops),
			row.Train.TotalErrorPct, row.Train.Type1, row.Train.Type2,
			row.Test.TotalErrorPct, row.Test.Type1, row.Test.Type2,
			row.Test.IterationsSaved)
	}
}

// ---------------------------------------------------------------------
// Table 1's detector against an HMM (Sec. 3.3, ref. [36]).

// DetectorResult scores two doomed-run detectors on the test corpus at
// 1, 2 and 3 consecutive STOPs.
type DetectorResult struct {
	MDP, HMM  []mdp.EvalResult
	TrainRuns int
	TestRuns  int
}

// DetectorAblation trains Table 1's MDP strategy card and an HMM
// likelihood-ratio detector on the same corpus: the paper's choice of
// the MDP formulation against the HMM alternative.
func DetectorAblation(scale Scale, seed int64) DetectorResult {
	train, test := Corpora(scale, seed)
	card := mdp.BuildCard(train)
	det := hmm.TrainDetector(train, 3, seed)
	res := DetectorResult{TrainRuns: len(train), TestRuns: len(test)}
	for k := 1; k <= 3; k++ {
		res.MDP = append(res.MDP, card.Evaluate(test, k))
		res.HMM = append(res.HMM, det.Evaluate(test, k))
	}
	return res
}

// Print writes both detectors' test errors side by side.
func (r DetectorResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Doomed-run detectors: MDP card vs HMM likelihood ratio (train %d logfiles, test %d logfiles)\n",
		r.TrainRuns, r.TestRuns)
	fmt.Fprintf(w, "%-10s | %8s %7s %7s | %8s %7s %7s\n", "", "mdpErr", "type1", "type2", "hmmErr", "type1", "type2")
	for i, m := range r.MDP {
		h := r.HMM[i]
		fmt.Fprintf(w, "%d STOP%s    | %7.2f%% %7d %7d | %7.2f%% %7d %7d\n", m.ConsecutiveStops, plural(m.ConsecutiveStops),
			m.TotalErrorPct, m.Type1, m.Type2, h.TotalErrorPct, h.Type1, h.Type2)
	}
}

func plural(k int) string {
	if k == 1 {
		return " "
	}
	return "s"
}

// ---------------------------------------------------------------------
// Figure 11: the METRICS loop end to end.

// Fig11Result summarizes an instrumented flow campaign shipped to a live
// METRICS warehouse and mined there.
type Fig11Result struct {
	Runs          int
	RecordsStored int
	BestFreqGHz   float64
	PrescribedLo  float64
	PrescribedHi  float64
	Suggested     flow.Options
	SensFreqArea  float64 // mined sensitivity: target freq -> synth area
}

// Fig11 serves a memory-only METRICS warehouse on loopback, instruments
// a flow campaign over a ladder of targets so every stage ships a record
// to it as JSON over HTTP, then mines the warehouse for guidance — the
// complete collect/store/mine/feed-back loop of the METRICS architecture.
func Fig11(scale Scale, seed int64) (Fig11Result, error) {
	wh, err := warehouse.Open("", journal.Options{})
	if err != nil {
		return Fig11Result{}, err
	}
	defer wh.Close()
	srv := metrics.NewServer()
	srv.Aux = map[string]http.Handler{"/warehouse/": http.StripPrefix("/warehouse", warehouse.NewHandler(wh))}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return Fig11Result{}, err
	}
	defer srv.Close()

	design := designForScale(scale, seed)
	probe := RunFlow(design, flow.Options{TargetFreqGHz: 0.3, Seed: seed})
	fmax := probe.MaxFreqGHz
	runsPer := 2
	if scale == Paper {
		runsPer = 6
	}
	// The ladder is one campaign whose points are its runs in run order.
	key := campaign.KeyFor(design)
	var pts []campaign.Point
	for i, f := range []float64{fmax * 0.6, fmax * 0.8, fmax * 0.9, fmax * 1.0, fmax * 1.1} {
		for s := 0; s < runsPer; s++ {
			opts := flow.Options{TargetFreqGHz: f, Seed: seed + int64(i*100+s)}
			pts = append(pts, campaign.NewPoint(design, key, opts))
		}
	}
	emit := warehouse.NewEmitter(campaign.ID(pts), "local", PointKeys(pts), warehouse.NewClient("http://"+addr+"/warehouse"))
	for _, p := range pts {
		flow.RunObserved(design, p.Options(), emit)
	}
	emit.Flush()

	res := Fig11Result{Runs: len(pts), RecordsStored: wh.Stats().Records}
	res.BestFreqGHz, _ = warehouse.BestTargetFreq(wh, design.Name)
	res.PrescribedLo, res.PrescribedHi, err = warehouse.PrescribeFreqRange(wh, design.Name)
	if err != nil {
		return res, err
	}
	res.Suggested = warehouse.Suggest(wh, design.Name, flow.Options{TargetFreqGHz: fmax * 0.6})
	res.SensFreqArea, err = warehouse.Sensitivity(wh, "synth", "area")
	return res, err
}

// Print writes the loop summary.
func (r Fig11Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 11: METRICS loop (JSON over HTTP, warehouse, miner)\n")
	fmt.Fprintf(w, "flow runs instrumented:      %d\n", r.Runs)
	fmt.Fprintf(w, "records stored:              %d\n", r.RecordsStored)
	fmt.Fprintf(w, "mined best met target:       %.3f GHz\n", r.BestFreqGHz)
	fmt.Fprintf(w, "prescribed achievable range: %.3f - %.3f GHz\n", r.PrescribedLo, r.PrescribedHi)
	fmt.Fprintf(w, "suggested next target:       %.3f GHz\n", r.Suggested.TargetFreqGHz)
	fmt.Fprintf(w, "sensitivity(target->area):   %.3f\n", r.SensFreqArea)
}
