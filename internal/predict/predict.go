// Package predict implements predictive modeling of tools and designs
// across increasing flow spans — the paper's Sec. 3.3 "longer ropes":
// "we must predict what will happen at the end of a longer and longer
// 'rope' of design steps when the rope is wiggled."
//
// Each Rope maps features observable at an early flow step to an
// outcome measured at a later step (netlist→synthesis, placement→global
// routing, congestion→final DRVs, and the full netlist→signoff-WNS rope
// of the paper's ref [7]). Evaluating all ropes on the same campaign
// quantifies how prediction quality degrades with span.
package predict

import (
	"context"
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/ml"
	"repro/internal/netlist"
)

// Sample is one flow run paired with its design's structural stats.
type Sample struct {
	Stats  netlist.Stats
	Result *flow.Result
}

// Rope is a prediction span. Features must only read information
// available at (or before) the rope's start step.
type Rope struct {
	Name     string
	Span     int // number of flow steps the prediction crosses
	Features func(s Sample) []float64
	Target   func(s Sample) float64
}

// designFeatures are the pre-flow structural attributes (ML application
// (i) of Sec. 3.3).
func designFeatures(s Sample) []float64 {
	return []float64{
		float64(s.Stats.Cells),
		float64(s.Stats.Registers),
		s.Stats.AvgFanout,
		float64(s.Stats.MaxFanout),
		float64(s.Stats.MaxLevel),
		s.Stats.AvgNetSpan,
		s.Stats.TotalArea,
		s.Result.Options.TargetFreqGHz,
	}
}

// StandardRopes returns the rope progression, shortest to longest.
func StandardRopes() []Rope {
	return []Rope{
		{
			Name: "netlist->synth-area",
			Span: 1,
			Features: func(s Sample) []float64 {
				return designFeatures(s)
			},
			Target: func(s Sample) float64 { return s.Result.Synth.AreaUm2 },
		},
		{
			Name: "synth->place-hpwl",
			Span: 1,
			Features: func(s Sample) []float64 {
				return []float64{
					s.Result.Synth.AreaUm2,
					float64(s.Result.Cells),
					s.Result.Synth.WNSPs,
					float64(s.Result.Synth.BuffersAdded),
				}
			},
			Target: func(s Sample) float64 { return s.Result.Place.HPWLUm },
		},
		{
			Name: "place->groute-overflow",
			Span: 1,
			Features: func(s Sample) []float64 {
				return []float64{
					s.Result.Place.HPWLUm,
					s.Result.Place.Width,
					float64(s.Result.Cells),
				}
			},
			Target: func(s Sample) float64 { return s.Result.Global.OverflowTotal },
		},
		{
			Name: "groute->droute-drvs",
			Span: 1,
			Features: func(s Sample) []float64 {
				return []float64{
					s.Result.Global.OverflowTotal,
					s.Result.Global.OverflowPeak,
					s.Result.Global.HotspotFrac,
					s.Result.Global.CongestionMargin(),
					s.Result.Global.WirelengthUm,
				}
			},
			Target: func(s Sample) float64 { return logDRV(s.Result.Route.Final) },
		},
		{
			Name: "synth->droute-drvs",
			Span: 3,
			Features: func(s Sample) []float64 {
				return []float64{
					s.Result.Synth.AreaUm2,
					float64(s.Result.Cells),
					s.Result.Options.TargetFreqGHz,
					s.Stats.AvgNetSpan,
				}
			},
			Target: func(s Sample) float64 { return logDRV(s.Result.Route.Final) },
		},
		{
			Name: "netlist->signoff-wns",
			Span: 5,
			Features: func(s Sample) []float64 {
				return designFeatures(s)
			},
			Target: func(s Sample) float64 { return s.Result.WNSPs },
		},
	}
}

func logDRV(d int) float64 { return math.Log10(float64(d) + 1) }

// CampaignConfig tunes campaign execution. The zero value runs one
// worker per CPU with no memoization.
type CampaignConfig struct {
	Workers int
	Cache   *campaign.Cache
}

// CampaignWith runs the flow across designs, option variants and seeds and
// returns the samples for rope evaluation: the (design x variant x seed)
// grid fans out over the campaign engine. Per-sample seeds are a
// pure function of grid position — the serial loop's formula — so the
// samples are bit-identical at any worker count.
func CampaignWith(designs []*netlist.Netlist, variants []flow.Options, seedsPer int, cfg CampaignConfig) []Sample {
	eng := campaign.New(campaign.Config{Workers: cfg.Workers, Cache: cfg.Cache})
	var pts []campaign.Point
	var stats []netlist.Stats // parallel to pts
	for _, d := range designs {
		key := ""
		if cfg.Cache != nil {
			key = campaign.KeyFor(d)
		}
		st := d.ComputeStats()
		for vi, v := range variants {
			for s := 0; s < seedsPer; s++ {
				opts := v
				opts.Seed = v.Seed + int64(vi*1000+s)
				pts = append(pts, campaign.NewPoint(d, key, opts))
				stats = append(stats, st)
			}
		}
	}
	results, _ := eng.Run(context.Background(), pts) //nolint:errcheck // background ctx never cancels
	out := make([]Sample, len(pts))
	for i, r := range results {
		out[i] = Sample{Stats: stats[i], Result: r}
	}
	return out
}

// Eval is the quality of one rope's model on held-out samples.
type Eval struct {
	Rope     string
	Span     int
	N        int
	TestR2   float64
	TestMAE  float64
	TrainMAE float64
}

// Evaluate fits a ridge model per rope on a train split and scores it on
// the held-out split.
func Evaluate(ropes []Rope, samples []Sample, testFrac float64, seed int64) ([]Eval, error) {
	if len(samples) < 8 {
		return nil, fmt.Errorf("predict: only %d samples", len(samples))
	}
	var out []Eval
	for _, rope := range ropes {
		var x [][]float64
		var y []float64
		for _, s := range samples {
			x = append(x, rope.Features(s))
			y = append(y, rope.Target(s))
		}
		xtr, ytr, xte, yte := ml.Split(x, y, testFrac, seed)
		if len(xte) == 0 || len(xtr) == 0 {
			return nil, fmt.Errorf("predict: degenerate split for %s", rope.Name)
		}
		scaler := ml.FitScaler(xtr)
		reg, err := ml.FitRidge(scaler.Transform(xtr), ytr, 1.0)
		if err != nil {
			return nil, fmt.Errorf("predict: %s: %w", rope.Name, err)
		}
		predTr := reg.PredictAll(scaler.Transform(xtr))
		predTe := reg.PredictAll(scaler.Transform(xte))
		out = append(out, Eval{
			Rope:     rope.Name,
			Span:     rope.Span,
			N:        len(samples),
			TestR2:   ml.R2(predTe, yte),
			TestMAE:  ml.MAE(predTe, yte),
			TrainMAE: ml.MAE(predTr, ytr),
		})
	}
	return out, nil
}

// PrefixModel predicts a router run's final (log) DRV count from the
// first k iterations of its series — the regression counterpart of the
// MDP doomed-run card, with quality improving as the observed prefix
// grows.
type PrefixModel struct {
	K      int
	reg    *ml.Ridge
	scaler *ml.Scaler
}

// prefixFeatures summarizes the first k+1 points of a DRV series.
func prefixFeatures(drvs []int, k int) []float64 {
	if k >= len(drvs) {
		k = len(drvs) - 1
	}
	first := logDRV(drvs[0])
	cur := logDRV(drvs[k])
	slope := 0.0
	if k > 0 {
		slope = (cur - first) / float64(k)
	}
	recent := 0.0
	if k > 0 {
		recent = cur - logDRV(drvs[k-1])
	}
	return []float64{first, cur, slope, recent, float64(k)}
}

// FitPrefix trains a prefix model from series with known finals.
func FitPrefix(series [][]int, k int) (*PrefixModel, error) {
	var x [][]float64
	var y []float64
	for _, s := range series {
		if len(s) < 2 {
			continue
		}
		x = append(x, prefixFeatures(s, k))
		y = append(y, logDRV(s[len(s)-1]))
	}
	if len(x) < 4 {
		return nil, fmt.Errorf("predict: %d usable series", len(x))
	}
	scaler := ml.FitScaler(x)
	reg, err := ml.FitRidge(scaler.Transform(x), y, 0.5)
	if err != nil {
		return nil, err
	}
	return &PrefixModel{K: k, reg: reg, scaler: scaler}, nil
}

// PredictFinal returns the predicted final log10(DRVs+1).
func (m *PrefixModel) PredictFinal(series []int) float64 {
	return m.reg.Predict(m.scaler.Transform([][]float64{prefixFeatures(series, m.K)})[0])
}

// EvaluatePrefix scores the model's doomed/success classification on
// held-out series (threshold: 200 DRVs).
func (m *PrefixModel) EvaluatePrefix(series [][]int) (accuracy float64, n int) {
	threshold := logDRV(200)
	correct := 0
	for _, s := range series {
		if len(s) < 2 {
			continue
		}
		n++
		predDoomed := m.PredictFinal(s) >= threshold
		actualDoomed := logDRV(s[len(s)-1]) >= threshold
		if predDoomed == actualDoomed {
			correct++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(correct) / float64(n), n
}
