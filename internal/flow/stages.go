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

	n    *netlist.Netlist // synth's input, then its output, placed by place
	syn  synth.Result
	pl   place.Result
	ct   cts.Result
	gr   *route.GlobalResult
	dr   *route.DetailResult
	sign *sta.Report

	// graph and fast are synthesis's compiled graph of n and its fast
	// timer, set when it resized no cell (synth.RunTimed); signer is n's
	// signoff timer.
	graph        *sta.Graph
	fast, signer *sta.Analyzer

	// reused is set when a's synthesis, place, cts, groute and droute
	// artifacts came from an earlier run's prefix (see Prefixes), and its
	// signoff report with them when sign is set before the sta stage.
	reused bool
}

// supplied reports whether a prefix supplied stage i's artifact.
func (a *artifacts) supplied(i int) bool {
	return a.reused && (i != stSTA || a.sign != nil)
}

// stage is one step of the flow as data.
type stage struct {
	// name keys the step's "flow.<name>" span and StepRecord.Step.
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
			a.syn, a.graph, a.fast = synth.RunTimed(a.n, synth.Options{
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
	stDroute: {
		name: "droute",
		compute: func(ctx context.Context, a *artifacts) {
			a.dr = route.DetailRouteCtx(ctx, a.gr, route.DetailOptions{
				Iterations: a.opts.RouteIters,
				Effort:     a.opts.RouteEffort,
				Seed:       subSeed(a.opts.Seed, 5),
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
			return map[string]float64{
				"drvs":       float64(dr.Final),
				"iterations": float64(dr.IterationsRun),
			}, series
		},
	},
	stSTA: {
		name: "sta",
		compute: func(_ context.Context, a *artifacts) {
			// Synthesis's graph, when it handed one over, is still n's:
			// nothing after it resizes or rewires a cell.
			g := a.graph
			if g == nil {
				g = sta.Compile(a.n)
			}
			a.signer = new(sta.Analyzer)
			a.sign = a.signer.Analyze(g, signoff(a))
		},
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
