// Package route implements global routing (congestion-aware pattern
// routing on a coarse grid) and a detailed-routing convergence simulator.
//
// The detailed router is the centerpiece substrate for the paper's
// doomed-run experiments (Figs. 9-10 and the consecutive-STOP error
// table): commercial detailed routers default to 20-40 rip-up-and-reroute
// iterations, and the per-iteration design-rule-violation (DRV) count is
// the time series the MDP/HMM detectors consume. Here the DRV dynamics
// are driven mechanistically by the global-routing congestion margin: a
// run whose residual congestion is high converges to a large DRV floor
// (doomed), a comfortable run decays geometrically to ~zero (success),
// with multiplicative noise — reproducing the four qualitative shapes of
// Fig. 9.
package route

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/netlist"
	"repro/internal/num"
	"repro/internal/trace"
)

// SuccessDRVThreshold is the paper's success criterion: a detailed
// routing run "succeeds" if it ends with fewer than 200 DRVs (the rest
// being manually fixable).
const SuccessDRVThreshold = 200

// GlobalOptions parameterize global routing.
type GlobalOptions struct {
	GridDim       int     // routing grid is GridDim x GridDim (default 24)
	TracksPerEdge float64 // capacity per grid edge (default 28)
	Seed          int64
	// Deprecated: Tiles selected the region-sharded parallel router,
	// which is gone; GlobalRoute ignores it. It stays until the benchmark
	// harness stops setting it (ROADMAP item 1(c)).
	Tiles int
}

func (o GlobalOptions) withDefaults() GlobalOptions {
	if o.GridDim <= 0 {
		o.GridDim = 24
	}
	if o.TracksPerEdge <= 0 {
		o.TracksPerEdge = 28
	}
	return o
}

// GlobalResult is the congestion picture after global routing.
type GlobalResult struct {
	GridDim int
	// Demand is the per-edge demand map, horizontal then vertical edges:
	// an artifact, nil in a result's Summary (and so after journal replay
	// or a remote fetch). Edges is its length and survives.
	Demand        []float64
	Edges         int
	Capacity      float64 // per-edge capacity
	WirelengthUm  float64
	OverflowTotal float64 // sum over edges of max(0, demand-capacity)
	OverflowPeak  float64 // worst single-edge overflow
	HotspotFrac   float64 // fraction of edges over 90% capacity
}

// CongestionMargin summarizes routability in one number: >0 means
// comfortable, <=0 means overflow pressure. It is the mechanistic driver
// of detailed-routing convergence.
func (g *GlobalResult) CongestionMargin() float64 {
	return 1 - (g.OverflowTotal/float64(g.Edges))/g.Capacity - 0.6*g.HotspotFrac
}

// router is the global-routing state: grid geometry, the demand map and
// the negotiated-congestion L-shape primitive GlobalRoute drives over all
// nets with one rng.
type router struct {
	n      *netlist.Netlist
	tracks float64 // capacity per edge
	dim    int
	w, h   float64
	numH   int
	demand []float64 // horizontal then vertical edges
	// cost[k] is congExp at a demand of k tracks. Demand is a unit count
	// (stampL adds whole tracks), so pricing an edge is a table read;
	// congCost falls back to the expression past the end.
	cost []float64
}

// costTableMax caps the table. No edge can carry more tracks than the
// design has pin pairs, which sizes it for small designs; the busiest
// edge of the 12.5 k-cell soc-proxy on the default 24 x 24 grid carries
// ~390 (a 256-entry table left math.Exp at 45 % of the retired tiled
// router).
const costTableMax = 1024

func newRouter(n *netlist.Netlist, opts GlobalOptions) *router {
	dim := opts.GridDim
	w, h := dieExtent(n)
	// Edge indexing: horizontal edge (x,y)->(x+1,y) at hIdx; vertical
	// edge (x,y)->(x,y+1) at vIdx.
	numH := (dim - 1) * dim
	numV := dim * (dim - 1)
	r := &router{
		n: n, tracks: opts.TracksPerEdge, dim: dim, w: w, h: h,
		numH:   numH,
		demand: make([]float64, numH+numV),
	}
	pairs := 0
	for i := range n.Nets {
		pairs += len(n.Nets[i].Sinks)
	}
	r.cost = make([]float64, min(pairs+1, costTableMax))
	for k := range r.cost {
		r.cost[k] = congExp(float64(k), opts.TracksPerEdge)
	}
	return r
}

func (r *router) toGrid(x, y float64) (int, int) {
	gx := int(x / r.w * float64(r.dim))
	gy := int(y / r.h * float64(r.dim))
	return num.Clamp(gx, 0, r.dim-1), num.Clamp(gy, 0, r.dim-1)
}

func (r *router) hIdx(x, y int) int { return y*(r.dim-1) + x }
func (r *router) vIdx(x, y int) int { return r.numH + x*(r.dim-1) + y }

// congExp is the cost of adding one track to an edge of the given
// capacity carrying demand d: grows steeply near capacity (standard
// negotiated-congestion style cost).
func congExp(d, tracks float64) float64 {
	return 1 + math.Exp(6*(d/tracks-1))
}

// congCost is congExp of an integral demand, from the table when it
// reaches that far.
func (r *router) congCost(d float64) float64 {
	if k := uint(int(d)); k < uint(len(r.cost)) {
		return r.cost[k]
	}
	return congExp(d, r.tracks)
}

// pricedHook, when set (tests only), sees every L costL is asked to
// price, before it is priced.
var pricedHook func(r *router, x1, y1, x2, y2 int)

// costL prices the horizontal-first L from (x1,y1) to (x2,y2) against
// the demand map without claiming it. The vertical-first L is the same
// call with endpoints swapped.
func (r *router) costL(x1, y1, x2, y2 int) float64 {
	if pricedHook != nil {
		pricedHook(r, x1, y1, x2, y2)
	}
	var cost float64
	for x := min(x1, x2); x < max(x1, x2); x++ {
		cost += r.congCost(r.demand[r.hIdx(x, y1)])
	}
	for y := min(y1, y2); y < max(y1, y2); y++ {
		cost += r.congCost(r.demand[r.vIdx(x2, y)])
	}
	return cost
}

// stampL claims one track along the horizontal-first L from (x1,y1) to
// (x2,y2) without pricing it. The vertical-first L is the same primitive
// called with the endpoints reversed: its edge set matches the backward
// traversal of the horizontal-first route.
func (r *router) stampL(x1, y1, x2, y2 int) {
	for x := min(x1, x2); x < max(x1, x2); x++ {
		r.demand[r.hIdx(x, y1)]++
	}
	for y := min(y1, y2); y < max(y1, y2); y++ {
		r.demand[r.vIdx(x2, y)]++
	}
}

// routeNet routes every sink of one net, accumulating wirelength into
// *wl (pointer so callers control the float summation order). All
// demand reads and writes stay on edges between the net's pin cells.
func (r *router) routeNet(netID int, rng *rand.Rand, wl *float64) {
	net := &r.n.Nets[netID]
	if net.IsClock || net.Driver < 0 || len(net.Sinks) == 0 {
		return
	}
	sx, sy := r.toGrid(r.n.Insts[net.Driver].X, r.n.Insts[net.Driver].Y)
	for _, s := range net.Sinks {
		tx, ty := r.toGrid(r.n.Insts[s.Inst].X, r.n.Insts[s.Inst].Y)
		if sx == tx && sy == ty {
			continue
		}
		// Two L-shapes: horizontal-first vs vertical-first;
		// take the cheaper, breaking ties randomly.
		c1 := r.costL(sx, sy, tx, ty) // H then V
		c2 := r.costL(tx, ty, sx, sy) // V then H
		if c1 < c2 || (c1 == c2 && rng.Float64() < 0.5) {
			r.stampL(sx, sy, tx, ty)
		} else {
			r.stampL(tx, ty, sx, sy)
		}
		*wl += (math.Abs(float64(sx-tx)) + math.Abs(float64(sy-ty))) * r.w / float64(r.dim)
	}
}

// GlobalRoute routes every non-clock net with congestion-aware L-shaped
// pattern routing on a uniform grid and returns the congestion picture.
func GlobalRoute(n *netlist.Netlist, opts GlobalOptions) *GlobalResult {
	opts = opts.withDefaults()
	r := newRouter(n, opts)
	rng := rand.New(rand.NewSource(opts.Seed))
	var wl float64
	for i := range n.Nets {
		r.routeNet(i, rng, &wl)
	}
	res := &GlobalResult{
		GridDim: r.dim, Demand: r.demand, Edges: len(r.demand),
		Capacity: opts.TracksPerEdge, WirelengthUm: wl,
	}
	hot := 0
	for _, d := range r.demand {
		if over := d - opts.TracksPerEdge; over > 0 {
			res.OverflowTotal += over
			if over > res.OverflowPeak {
				res.OverflowPeak = over
			}
		}
		if d > 0.9*opts.TracksPerEdge {
			hot++
		}
	}
	res.HotspotFrac = float64(hot) / float64(len(r.demand))
	return res
}

// IterAction is a live supervision decision taken between rip-up
// passes: Continue runs the next iteration, Stop terminates the run now
// (the doomed-run MDP's STOP, acted on while the tool is running instead
// of graded post hoc). It deliberately mirrors mdp.Action without
// importing it — mdp consumes this package's results, so the dependency
// points the other way.
type IterAction int

const (
	// Continue lets the router run its next rip-up pass.
	Continue IterAction = iota
	// Stop terminates the run after the current pass, releasing the
	// license the run holds.
	Stop
)

// IterHook is called after every rip-up pass with the 1-based iteration
// just completed and the DRV series so far (drvs[0] is the initial
// count, drvs[iter] the newest). Returning Stop ends the run. The hook
// must not retain or mutate drvs.
type IterHook func(iter int, drvs []int) IterAction

// DetailOptions parameterize the detailed-routing convergence simulator.
type DetailOptions struct {
	Iterations int   // rip-up-and-reroute iterations (default 20, as in Fig. 9)
	Effort     int   // 1..3; higher effort converges faster (default 2)
	Seed       int64 // run noise
	// IterHook, when non-nil, is consulted between rip-up passes and
	// can stop the run live (see DetailRouteCtx). It never affects the
	// DRV values of the iterations that do run: the rng stream is
	// consumed per pass, so a stopped run's series is a bit-identical
	// prefix of the uninterrupted run's.
	IterHook IterHook
}

func (o DetailOptions) withDefaults() DetailOptions {
	if o.Iterations <= 0 {
		o.Iterations = 20
	}
	if o.Effort <= 0 {
		o.Effort = 2
	}
	return o
}

// DetailResult is one detailed-routing run.
type DetailResult struct {
	// DRVs[t] is the violation count after iteration t; DRVs[0] is the
	// initial count after track assignment.
	DRVs          []int
	Final         int
	Success       bool // Final < SuccessDRVThreshold
	IterationsRun int
	// IterationsBudget is the iteration budget the run was given
	// (Iterations after defaults); IterationsBudget - IterationsRun is
	// the compute a live STOP or abort reclaimed.
	IterationsBudget int
	// RuntimeProxy accumulates simulated per-iteration cost; early
	// termination of doomed runs saves this (the paper's motivation).
	RuntimeProxy float64
	// StopIter is the iteration at which IterHook stopped the run
	// (0 = ran without a live STOP). The result is a well-formed
	// partial: DRVs, Final, Success and IterationsRun describe the
	// iterations that actually ran.
	StopIter int
	// Aborted is set when the run was cancelled via context rather than
	// finishing or being STOPped by its hook.
	Aborted bool
}

// DetailRoute simulates rip-up-and-reroute convergence for the global
// routing congestion picture.
func DetailRoute(g *GlobalResult, opts DetailOptions) *DetailResult {
	return DetailRouteCtx(context.Background(), g, opts)
}

// DetailRouteCtx is DetailRoute with live supervision: between rip-up
// passes it checks ctx (cancellation aborts the run, setting Aborted)
// and consults opts.IterHook (a Stop ends the run, setting StopIter).
// Both paths return a well-formed partial result whose DRV series is a
// bit-identical prefix of the uninterrupted run's, so a supervisor's
// CONTINUE decisions never perturb QOR — only early termination saves
// iterations.
func DetailRouteCtx(ctx context.Context, g *GlobalResult, opts DetailOptions) *DetailResult {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &DetailResult{IterationsBudget: opts.Iterations}

	margin := g.CongestionMargin()

	// Initial DRVs: proportional to total routed wire with a strong
	// overflow multiplier.
	base := 300 + 40*math.Sqrt(g.WirelengthUm)
	drv := base * (1 + 2.5*g.OverflowTotal/math.Max(1, float64(g.Edges))) *
		math.Exp(0.25*rng.NormFloat64())

	// Convergence floor: residual violations that rip-up cannot fix,
	// driven by peak overflow and hotspot clustering. A comfortable
	// margin gives floor ~0 (success); congestion leaves hundreds to
	// thousands (doomed).
	floor := 9 * g.OverflowPeak * (1 + 14*g.HotspotFrac)
	if margin > 0.12 {
		floor *= math.Exp(-12 * (margin - 0.12))
	}
	// Outcomes separate in practice (cf. the paper's Fig. 9: successes
	// end near 10^1-10^2 DRVs, doomed runs at 10^3-10^4): a residual
	// hotspot either unravels under rip-up or it doesn't. Sharpen the
	// floor around the success threshold so borderline finals are rare,
	// preserving monotonicity in congestion.
	if floor > 0 {
		floor = SuccessDRVThreshold * math.Pow(floor/SuccessDRVThreshold, 2.2)
	}

	// Per-iteration retention: fraction of fixable DRVs surviving an
	// iteration. Effort buys a lower retention.
	rho := 0.72 - 0.09*float64(opts.Effort)
	res.DRVs = append(res.DRVs, int(drv))
	for t := 1; t <= opts.Iterations; t++ {
		if ctx.Err() != nil {
			res.Aborted = true
			break
		}
		// One span per rip-up pass: the innermost layer of the campaign
		// trace, and the route.iter latency histogram. Costs one nil
		// check when tracing is off.
		_, isp := trace.Start(ctx, "route.iter")
		noise := math.Exp(0.10 * rng.NormFloat64())
		// Late iterations on congested designs can regress (the
		// orange curve of Fig. 9): rip-up in hotspots creates new
		// violations elsewhere.
		regress := 1.0
		if floor > SuccessDRVThreshold && t > opts.Iterations/2 && rng.Float64() < 0.3 {
			regress = 1.15
		}
		drv = (floor + (drv-floor)*rho) * noise * regress
		if drv < 0 {
			drv = 0
		}
		res.DRVs = append(res.DRVs, int(drv))
		res.IterationsRun++
		res.RuntimeProxy += 1 + drv/5000
		isp.SetInt("iter", int64(t))
		isp.SetInt("drvs", int64(drv))
		if opts.IterHook != nil && opts.IterHook(t, res.DRVs) == Stop {
			res.StopIter = t
			isp.EndWith(trace.Stopped)
			break
		}
		isp.End()
	}
	res.Final = res.DRVs[len(res.DRVs)-1]
	res.Success = res.Final < SuccessDRVThreshold
	return res
}

// dieExtent derives the routed die from the placement extent (cached on
// the netlist) plus a 1% halo.
func dieExtent(n *netlist.Netlist) (w, h float64) {
	maxX, maxY := n.PlacedExtent()
	if maxX <= 0 {
		maxX = 1
	}
	if maxY <= 0 {
		maxY = 1
	}
	return maxX * 1.01, maxY * 1.01
}
