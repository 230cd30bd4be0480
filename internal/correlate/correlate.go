// Package correlate implements analysis miscorrelation measurement and
// its ML correction (the paper's Sec. 3.2, Fig. 8, and refs [14][27]):
// two timing engines disagree on the same design; a learned model maps
// the cheap engine's endpoint reports onto the expensive engine's
// results, shifting the accuracy-cost tradeoff curve ("accuracy for
// free").
package correlate

import (
	"fmt"
	"math"

	"repro/internal/ml"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// Divergence quantifies miscorrelation between two engines on one
// design: per-endpoint slack deltas (to - from) and summary statistics.
type Divergence struct {
	DeltasPs []float64
	MAEPs    float64
	RMSEPs   float64
	MaxAbsPs float64
	// Disagreements counts endpoints where the engines disagree on
	// the sign of slack — exactly the iteration-forcing case the paper
	// describes (P&R says met, signoff says violated, or vice versa).
	Disagreements int
	Endpoints     int
}

// compare measures the divergence of report b from report a. Endpoints
// are matched positionally (both reports analyze the identical netlist,
// so the endpoint sets are identical and ordered identically); identity
// is verified.
func compare(a, b *sta.Report) (Divergence, error) {
	var d Divergence
	if len(a.Endpoints) != len(b.Endpoints) {
		return d, fmt.Errorf("correlate: endpoint sets differ (%d vs %d)", len(a.Endpoints), len(b.Endpoints))
	}
	d.Endpoints = len(a.Endpoints)
	var sumAbs, sumSq float64
	for i := range a.Endpoints {
		ea, eb := a.Endpoints[i], b.Endpoints[i]
		if ea.Inst != eb.Inst || ea.Net != eb.Net {
			return d, fmt.Errorf("correlate: endpoint %d identity mismatch", i)
		}
		delta := eb.SlackPs - ea.SlackPs
		d.DeltasPs = append(d.DeltasPs, delta)
		abs := math.Abs(delta)
		sumAbs += abs
		sumSq += delta * delta
		if abs > d.MaxAbsPs {
			d.MaxAbsPs = abs
		}
		if (ea.SlackPs >= 0) != (eb.SlackPs >= 0) {
			d.Disagreements++
		}
	}
	if d.Endpoints > 0 {
		d.MAEPs = sumAbs / float64(d.Endpoints)
		d.RMSEPs = math.Sqrt(sumSq / float64(d.Endpoints))
	}
	return d, nil
}

// features extracts the model inputs from a cheap-engine endpoint: the
// structural and electrical attributes ref [14] uses (path depth, wire
// delay, slew, load, arrival, slack).
func features(ep sta.Endpoint) []float64 {
	return []float64{
		ep.SlackPs,
		ep.Arrival,
		float64(ep.Depth),
		ep.WirePs,
		ep.SlewPs,
		ep.FanoutLd,
	}
}

// Model maps cheap-engine endpoints to expensive-engine slacks.
type Model struct {
	From, To sta.Config
	reg      *ml.Ridge
	scaler   *ml.Scaler
	// TrainMAE is the residual error on the training set, ps.
	TrainMAE float64
	// InferenceCost is the (simulated) cost of applying the model,
	// negligible next to any engine run.
	InferenceCost float64
}

// Train fits a correction model from cheap to expensive engine over a
// set of training designs.
func Train(designs []*netlist.Netlist, from, to sta.Config) (*Model, error) {
	var x [][]float64
	var y []float64
	for _, n := range designs {
		a := sta.Analyze(n, from)
		b := sta.Analyze(n, to)
		if len(a.Endpoints) != len(b.Endpoints) {
			return nil, fmt.Errorf("correlate: endpoint mismatch on %s", n.Name)
		}
		for i := range a.Endpoints {
			x = append(x, features(a.Endpoints[i]))
			y = append(y, b.Endpoints[i].SlackPs)
		}
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("correlate: no endpoints to train on")
	}
	scaler := ml.FitScaler(x)
	xs := scaler.Transform(x)
	reg, err := ml.FitRidge(xs, y, 1.0)
	if err != nil {
		return nil, err
	}
	m := &Model{From: from, To: to, reg: reg, scaler: scaler, InferenceCost: 0.01}
	m.TrainMAE = ml.MAE(reg.PredictAll(xs), y)
	return m, nil
}

// PredictSlack maps one cheap-engine endpoint to the predicted
// expensive-engine slack.
func (m *Model) PredictSlack(ep sta.Endpoint) float64 {
	return m.reg.Predict(m.scaler.Transform([][]float64{features(ep)})[0])
}

// Apply runs the cheap engine on a design and returns ML-corrected
// endpoint slacks alongside the raw report.
func (m *Model) Apply(n *netlist.Netlist) (*sta.Report, []float64) {
	rep := sta.Analyze(n, m.From)
	out := make([]float64, len(rep.Endpoints))
	for i, ep := range rep.Endpoints {
		out[i] = m.PredictSlack(ep)
	}
	return rep, out
}

// Evaluate measures the model on a held-out design: MAE of raw cheap
// slacks vs truth, MAE of corrected slacks vs truth, and the residual
// sign disagreements after correction.
type Evaluation struct {
	RawMAEPs       float64
	CorrectedMAEPs float64
	RawDisagree    int
	CorrDisagree   int
	Endpoints      int
}

// Evaluate applies the model to a design and compares against the
// expensive engine.
func (m *Model) Evaluate(n *netlist.Netlist) (Evaluation, error) {
	var ev Evaluation
	rep, corrected := m.Apply(n)
	truth := sta.Analyze(n, m.To)
	if len(truth.Endpoints) != len(rep.Endpoints) {
		return ev, fmt.Errorf("correlate: endpoint mismatch on %s", n.Name)
	}
	ev.Endpoints = len(rep.Endpoints)
	var rawAbs, corrAbs float64
	for i := range rep.Endpoints {
		tr := truth.Endpoints[i].SlackPs
		raw := rep.Endpoints[i].SlackPs
		cor := corrected[i]
		rawAbs += math.Abs(raw - tr)
		corrAbs += math.Abs(cor - tr)
		if (raw >= 0) != (tr >= 0) {
			ev.RawDisagree++
		}
		if (cor >= 0) != (tr >= 0) {
			ev.CorrDisagree++
		}
	}
	if ev.Endpoints > 0 {
		ev.RawMAEPs = rawAbs / float64(ev.Endpoints)
		ev.CorrectedMAEPs = corrAbs / float64(ev.Endpoints)
	}
	return ev, nil
}

// CurvePoint is one engine configuration on the accuracy-cost plane of
// Fig. 8.
type CurvePoint struct {
	Name        string
	CostUnits   float64
	AccuracyPct float64 // 100 = matches the reference engine exactly
	MAEPs       float64
}

// AccuracyCostCurve evaluates the engine family against the most
// expensive configuration (signoff+SI+PBA, the "100%" reference) on a
// test design, plus the ML-corrected fast engine — reproducing the
// "+ML" shift of Fig. 8. Train designs feed the correction model.
func AccuracyCostCurve(train []*netlist.Netlist, test *netlist.Netlist) ([]CurvePoint, error) {
	truthCfg := sta.Config{Engine: sta.Signoff, SI: true, PathBased: true}
	truth := sta.Analyze(test, truthCfg)

	// Accuracy normalization: MAE relative to the spread of true
	// slacks (p95-p5), saturating at 0.
	var slacks []float64
	for _, ep := range truth.Endpoints {
		slacks = append(slacks, ep.SlackPs)
	}
	spread := ml.Quantile(slacks, 0.95) - ml.Quantile(slacks, 0.05)
	if spread <= 0 {
		spread = 1
	}
	acc := func(mae float64) float64 {
		a := 100 * (1 - mae/spread)
		if a < 0 {
			a = 0
		}
		return a
	}

	engines := []struct {
		name string
		cfg  sta.Config
	}{
		{"fast", sta.Config{Engine: sta.Fast}},
		{"signoff", sta.Config{Engine: sta.Signoff}},
		{"signoff+si", sta.Config{Engine: sta.Signoff, SI: true}},
		{"signoff+si+pba", truthCfg},
	}
	var points []CurvePoint
	for _, e := range engines {
		rep := sta.Analyze(test, e.cfg)
		div, err := compare(rep, truth)
		if err != nil {
			return nil, err
		}
		points = append(points, CurvePoint{
			Name:        e.name,
			CostUnits:   rep.CostUnits,
			AccuracyPct: acc(div.MAEPs),
			MAEPs:       div.MAEPs,
		})
	}

	model, err := Train(train, sta.Config{Engine: sta.Fast}, truthCfg)
	if err != nil {
		return nil, err
	}
	rep, corrected := model.Apply(test)
	var mae float64
	for i := range rep.Endpoints {
		mae += math.Abs(corrected[i] - truth.Endpoints[i].SlackPs)
	}
	if len(rep.Endpoints) > 0 {
		mae /= float64(len(rep.Endpoints))
	}
	points = append(points, CurvePoint{
		Name:        "fast+ml",
		CostUnits:   rep.CostUnits + model.InferenceCost,
		AccuracyPct: acc(mae),
		MAEPs:       mae,
	})
	return points, nil
}
