package warehouse

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/flow"
	"repro/internal/ml"
)

// Regression is one flagged metric delta between two campaigns.
type Regression struct {
	Stage    string
	Scalar   string
	Base     float64 // mean over the base campaign's records
	Head     float64 // mean over the head campaign's records
	DeltaPct float64 // signed percent change head vs base
	Worse    bool    // true when the change is in the bad direction
}

// higherIsBetter marks the scalars whose increase is an improvement;
// everything else (area, power, runtime, drvs, ...) is
// lower-is-better.
var higherIsBetter = map[string]bool{
	"wns_ps":      true, // less negative slack is better
	"maxfreq_ghz": true,
}

// Mine compares two campaigns stage by stage: for every scalar present
// in both, it computes the mean over each campaign's records and flags
// changes beyond tolerancePct. This is the paper's "mining" box in its
// smallest useful form — enough to catch "this code/flow change made
// droute 8% slower" from the warehouse alone.
func Mine(w *Warehouse, baseCampaign, headCampaign string, tolerancePct float64) []Regression {
	baseMeans := stageMeans(w.Select(Query{Campaign: baseCampaign}))
	headMeans := stageMeans(w.Select(Query{Campaign: headCampaign}))
	var out []Regression
	for key, b := range baseMeans {
		h, ok := headMeans[key]
		if !ok {
			continue
		}
		var deltaPct float64
		switch {
		case b.mean != 0:
			deltaPct = (h.mean - b.mean) / abs(b.mean) * 100
		case h.mean != 0:
			deltaPct = 100
		}
		if abs(deltaPct) <= tolerancePct {
			continue
		}
		worse := deltaPct > 0
		if higherIsBetter[key.scalar] {
			worse = !worse
		}
		out = append(out, Regression{
			Stage: key.stage, Scalar: key.scalar,
			Base: b.mean, Head: h.mean, DeltaPct: deltaPct, Worse: worse,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Worse != out[j].Worse {
			return out[i].Worse
		}
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Scalar < out[j].Scalar
	})
	return out
}

// WriteRegressions renders a miner report, worst first.
func WriteRegressions(out io.Writer, regs []Regression) {
	for _, r := range regs {
		tag := "improved"
		if r.Worse {
			tag = "REGRESSED"
		}
		fmt.Fprintf(out, "%s %s.%s base=%.3f head=%.3f delta=%+.1f%%\n",
			tag, r.Stage, r.Scalar, r.Base, r.Head, r.DeltaPct)
	}
}

type stageScalar struct{ stage, scalar string }

type meanAcc struct {
	mean float64
	n    int
}

func stageMeans(recs []Record) map[stageScalar]meanAcc {
	sums := map[stageScalar]meanAcc{}
	for _, r := range recs {
		for k, v := range r.Scalars {
			key := stageScalar{r.Stage, k}
			acc := sums[key]
			acc.mean += v
			acc.n++
			sums[key] = acc
		}
	}
	for key, acc := range sums {
		acc.mean /= float64(acc.n)
		sums[key] = acc
	}
	return sums
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// RunSummary is one flow run — one (campaign, point) — folded from its
// stage records: the unit the Fig. 11 miner below reasons over.
type RunSummary struct {
	Campaign      string
	Point         int
	Design        string
	Seed          int64
	FreqGHz       float64 // the run's target frequency
	AreaUm2       float64
	WNSPs         float64
	MaxFreqGHz    float64
	FinalDRVs     float64 // -1 without a droute record
	HPWLUm        float64
	OverflowTotal float64
	TimingMet     bool
	RouteOK       bool
	Met           bool
}

// Summarize folds the records of a design (of every design when design
// is empty) into one summary per run, in canonical (campaign, point)
// order. A run is its (campaign, point), never its seed: two runs that
// share a seed at two targets stay two runs.
func Summarize(w *Warehouse, design string) []RunSummary {
	var out []RunSummary
	for _, r := range w.Select(Query{Design: design}) {
		if n := len(out); n == 0 || out[n-1].Campaign != r.Campaign || out[n-1].Point != r.Point {
			out = append(out, RunSummary{
				Campaign: r.Campaign, Point: r.Point, Design: r.Design,
				Seed: r.Seed, FreqGHz: r.FreqGHz, FinalDRVs: -1,
			})
		}
		sum := &out[len(out)-1]
		switch r.Stage {
		case "synth":
			sum.AreaUm2 = r.Scalars["area"]
		case "place":
			sum.HPWLUm = r.Scalars["hpwl"]
		case "groute":
			sum.OverflowTotal = r.Scalars["overflow"]
		case "droute":
			if v, ok := r.Scalars["drvs"]; ok {
				sum.FinalDRVs, sum.RouteOK = v, v < 200
			}
		case "sta":
			if v, ok := r.Scalars["wns"]; ok {
				sum.WNSPs, sum.TimingMet = v, v >= 0
			}
			sum.MaxFreqGHz = r.Scalars["maxfreq"]
		}
	}
	for i := range out {
		out[i].Met = out[i].TimingMet && out[i].RouteOK
	}
	return out
}

// BestTargetFreq mines the highest target frequency that produced a met
// run of the design ("prediction of best design-specific tool option
// settings").
func BestTargetFreq(w *Warehouse, design string) (float64, bool) {
	return bestMet(Summarize(w, design))
}

func bestMet(sums []RunSummary) (best float64, found bool) {
	for _, s := range sums {
		if s.Met && s.FreqGHz > best {
			best, found = s.FreqGHz, true
		}
	}
	return best, found
}

// PrescribeFreqRange predicts the achievable clock frequency band for a
// design: a regression of signoff max-frequency on target frequency,
// evaluated at the highest target run, plus or minus the spread of the
// max-frequencies — the "prescribe achievable clock frequency for given
// designs" validation use.
func PrescribeFreqRange(w *Warehouse, design string) (loGHz, hiGHz float64, err error) {
	var x [][]float64
	var y []float64
	bestTarget := 0.0
	for _, s := range Summarize(w, design) {
		if s.MaxFreqGHz <= 0 {
			continue
		}
		x = append(x, []float64{s.FreqGHz})
		y = append(y, s.MaxFreqGHz)
		if s.FreqGHz > bestTarget {
			bestTarget = s.FreqGHz
		}
	}
	if len(x) < 3 {
		return 0, 0, fmt.Errorf("warehouse: only %d runs of %s with a max frequency", len(x), design)
	}
	reg, err := ml.FitLinear(x, y)
	if err != nil {
		return 0, 0, err
	}
	mid := reg.Predict([]float64{bestTarget})
	spread := ml.StdDev(y)
	return mid - spread, mid + spread, nil
}

// Suggest returns the options for the next run of a design: the mined
// best target nudged up by half the slack its last met run left, or a
// 10% back-off at higher synthesis effort while no run has met — METRICS
// feeding predictions and guidance back into the design flow.
func Suggest(w *Warehouse, design string, prev flow.Options) flow.Options {
	next := prev
	sums := Summarize(w, design)
	if len(sums) == 0 {
		return next
	}
	best, ok := bestMet(sums)
	if !ok {
		next.TargetFreqGHz = prev.TargetFreqGHz * 0.9
		next.SynthEffort = 3
		return next
	}
	var bestWNS float64
	for _, s := range sums {
		if s.Met && s.FreqGHz == best {
			bestWNS = s.WNSPs
		}
	}
	next.TargetFreqGHz = best
	if bestWNS > 0 {
		next.TargetFreqGHz = 1000 / (1000/best - bestWNS*0.5)
	}
	return next
}

// Sensitivity is the correlation between the target frequency and one
// scalar of one stage across every stored run — the "sensitivity
// analyses with respect to final design QOR" of the METRICS validation.
func Sensitivity(w *Warehouse, stage, scalar string) (float64, error) {
	var xs, ys []float64
	for _, r := range w.Select(Query{Stage: stage}) {
		if v, ok := r.Scalars[scalar]; ok {
			xs = append(xs, r.FreqGHz)
			ys = append(ys, v)
		}
	}
	if len(xs) < 3 {
		return 0, fmt.Errorf("warehouse: only %d samples of %s.%s", len(xs), stage, scalar)
	}
	return ml.Pearson(xs, ys), nil
}
