package flow

import (
	"context"

	"repro/internal/cts"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/synth"
)

// artifacts is one run's set of named stage artifacts — what the stages
// pass to each other — plus the inputs every stage reads. A stage's
// compute reads its upstream fields and writes only its own.
type artifacts struct {
	opts Options
	hook route.IterHook // the live doomed-run supervisor, if any

	n    *netlist.Netlist // synth's input, then its output, placed by place
	syn  synth.Result
	pl   place.Result
	ct   cts.Result
	gr   *route.GlobalResult
	dr   *route.DetailResult
	sign *sta.Report
}

// stage is one step of the flow as data.
type stage struct {
	// name keys the step's fault coins, its "flow.<name>" span and
	// StepRecord.Step.
	name string
	// compute runs the step on a. It writes only its own artifact, so a
	// stage the watchdog abandons never touches the Result. A kernel that
	// can stop early when ctx dies may leave the artifact partial; a
	// stage cut short is never committed.
	compute func(ctx context.Context, a *artifacts)
	// commit publishes the artifact into res, adds its runtime proxy and
	// returns the metrics and series of the step's record.
	commit func(res *Result, a *artifacts) (map[string]float64, []float64)
}

// Indices into stages.
const (
	stSynth = iota
	stPlace
	stCTS
	stGroute
	stDroute
	stSTA
)

// stages is the flow in order; RunCfg drives it one entry at a time.
var stages = [...]stage{
	stSynth: {
		name: "synth",
		compute: func(_ context.Context, a *artifacts) {
			a.syn = synth.Run(a.n, synth.Options{
				TargetFreqGHz: a.opts.TargetFreqGHz,
				Effort:        a.opts.SynthEffort,
				Seed:          subSeed(a.opts.Seed, 1),
				MaxFanout:     a.opts.MaxFanout,
			})
			a.n = a.syn.Netlist
		},
		commit: func(res *Result, a *artifacts) (map[string]float64, []float64) {
			res.Synth, res.Netlist, res.Cells = a.syn, a.n, a.n.NumCells()
			res.RuntimeProxy += float64(a.syn.Passes) * float64(res.Cells) / 1000
			return map[string]float64{
				"area":    a.syn.AreaUm2,
				"wns":     a.syn.WNSPs,
				"cells":   float64(res.Cells),
				"upsized": float64(a.syn.Upsized),
				"buffers": float64(a.syn.BuffersAdded),
			}, nil
		},
	},
	stPlace: {
		name: "place",
		compute: func(ctx context.Context, a *artifacts) {
			a.pl, _ = place.PlaceCtx(ctx, a.n, place.Options{
				Seed:        subSeed(a.opts.Seed, 2),
				Moves:       a.opts.PlaceMoves * a.n.NumCells(),
				Utilization: a.opts.Utilization,
				Partitions:  a.opts.Partitions,
			})
		},
		commit: func(res *Result, a *artifacts) (map[string]float64, []float64) {
			res.Place = a.pl
			res.RuntimeProxy += float64(a.pl.RuntimeProxy) / 50000
			return map[string]float64{
				"hpwl":         a.pl.HPWLUm,
				"initial_hpwl": a.pl.InitialHPWLUm,
				"width":        a.pl.Width,
			}, nil
		},
	},
	stCTS: {
		name: "cts",
		compute: func(_ context.Context, a *artifacts) {
			a.ct = cts.Synthesize(a.n, cts.Options{Seed: subSeed(a.opts.Seed, 3)})
		},
		commit: func(res *Result, a *artifacts) (map[string]float64, []float64) {
			res.CTS = a.ct
			res.RuntimeProxy += float64(a.ct.Buffers) / 100
			return map[string]float64{
				"skew":    a.ct.MaxSkewPs,
				"latency": a.ct.LatencyPs,
				"buffers": float64(a.ct.Buffers),
			}, nil
		},
	},
	stGroute: {
		name: "groute",
		compute: func(_ context.Context, a *artifacts) {
			a.gr = route.GlobalRoute(a.n, route.GlobalOptions{
				Seed:          subSeed(a.opts.Seed, 4),
				TracksPerEdge: a.opts.TracksPerEdge,
			})
		},
		commit: func(res *Result, a *artifacts) (map[string]float64, []float64) {
			res.Global = a.gr
			res.RuntimeProxy += a.gr.WirelengthUm / 5000
			return map[string]float64{
				"wirelength":   a.gr.WirelengthUm,
				"overflow":     a.gr.OverflowTotal,
				"overflowPeak": a.gr.OverflowPeak,
				"hotspots":     a.gr.HotspotFrac,
				"margin":       a.gr.CongestionMargin(),
			}, nil
		},
	},
	// The hook sees iterations as they complete; its STOP truncates the
	// route in place.
	stDroute: {
		name: "droute",
		compute: func(ctx context.Context, a *artifacts) {
			a.dr = route.DetailRouteCtx(ctx, a.gr, route.DetailOptions{
				Iterations: a.opts.RouteIters,
				Effort:     a.opts.RouteEffort,
				Seed:       subSeed(a.opts.Seed, 5),
				IterHook:   a.hook,
			})
		},
		commit: func(res *Result, a *artifacts) (map[string]float64, []float64) {
			dr := a.dr
			res.Route = dr
			res.RuntimeProxy += dr.RuntimeProxy
			series := make([]float64, len(dr.DRVs))
			for i, d := range dr.DRVs {
				series[i] = float64(d)
			}
			m := map[string]float64{
				"drvs":       float64(dr.Final),
				"iterations": float64(dr.IterationsRun),
			}
			if dr.StopIter > 0 {
				m["stopped_at"] = float64(dr.StopIter)
				m["saved_iters"] = float64(dr.IterationsBudget - dr.IterationsRun)
			}
			return m, series
		},
	},
	stSTA: {
		name:    "sta",
		compute: func(_ context.Context, a *artifacts) { a.sign = sta.Analyze(a.n, signoff(a)) },
		commit: func(res *Result, a *artifacts) (map[string]float64, []float64) {
			res.Sign = a.sign
			res.RuntimeProxy += a.sign.CostUnits
			return map[string]float64{
				"wns":     a.sign.WNSPs,
				"tns":     a.sign.TNSPs,
				"maxfreq": a.sign.MaxFreqGHz,
			}, nil
		},
	},
}

// signoff is the signoff timer's configuration: SI on, the clock tree's
// skews, the option point's derate.
func signoff(a *artifacts) sta.Config {
	return sta.Config{Engine: sta.Signoff, SI: true, ClockSkew: a.ct.SkewPs, DeratePct: a.opts.DeratePct}
}
