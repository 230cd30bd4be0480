// Package sta implements static timing analysis over the netlist model.
//
// Two engine fidelities are provided, mirroring the miscorrelated analysis
// pair of the paper's Sec. 3.2: a fast graph-based engine (lumped wire
// load, no slew propagation, no coupling) of the kind embedded in P&R
// tools, and a signoff engine (Elmore wire delay, slew-dependent stage
// delay, optional SI coupling, optional path-based pessimism recovery).
// Each report carries a simulated runtime cost, so the accuracy-versus-
// cost tradeoff of the paper's Fig. 8 can be measured directly.
//
// Two evaluation modes share the same per-net arithmetic: Analyze runs a
// full-graph propagation and is the oracle; Incremental holds the state
// of one full analysis and re-propagates only the cone affected by a
// change notification (see incremental.go). Both sweep a Graph, the
// netlist's topology compiled into flat arrays by Compile. An Analyzer is
// Analyze's workspace, kept by a caller that analyses one netlist again and
// again (synth.Run) on a graph it compiled once: it walks each net's pins
// once per analysis into a load table that the stage arithmetic and the
// caller both read, and fills one report it owns.
package sta

import (
	"math"
	"slices"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

// Engine selects the analysis fidelity.
type Engine int

const (
	// Fast is the optimizer-embedded engine: lumped capacitive wire
	// load only, no slew propagation. Cheapest, least accurate.
	Fast Engine = iota
	// Signoff models Elmore wire delay and slew-dependent stage delay.
	Signoff
)

func (e Engine) String() string {
	if e == Fast {
		return "fast"
	}
	return "signoff"
}

// Config parameterizes an analysis run.
type Config struct {
	Engine    Engine
	PathBased bool // recover graph-based slew pessimism on critical paths
	SI        bool // include coupling (signal-integrity) delay push-out

	// ClockSkew holds per-instance clock arrival offsets in ps (from
	// CTS); nil means ideal clocks. Indexed by instance ID.
	ClockSkew []float64
	// DeratePct adds a uniform derate (guardband) to every stage delay,
	// in percent. This is the "margin" lever of the paper's Fig. 4.
	DeratePct float64
	// InstDerate holds per-instance delay multipliers (e.g. from the
	// IR-drop map of internal/power, closing the paper's multiphysics
	// loop); nil means 1.0 everywhere. Indexed by instance ID.
	InstDerate []float64
	// Corner selects the PVT analysis corner (zero value = typical).
	Corner Corner
}

// instDerate returns the per-instance multiplier (1.0 when unset).
func (c *Config) instDerate(inst int) float64 {
	if c.InstDerate == nil || inst >= len(c.InstDerate) || c.InstDerate[inst] <= 0 {
		return 1
	}
	return c.InstDerate[inst]
}

// skew returns the clock arrival offset of an instance (0 when unset).
func (c *Config) skew(inst int) float64 {
	if c.ClockSkew == nil || inst >= len(c.ClockSkew) {
		return 0
	}
	return c.ClockSkew[inst]
}

// pbaApplies reports whether path-based recovery is in effect.
func (c *Config) pbaApplies() bool { return c.PathBased && c.Engine == Signoff }

// Endpoint is a timing path endpoint (a flip-flop D pin or a net with an
// external load) with its slack and path features. The feature fields
// feed the ML correlation models of internal/correlate.
type Endpoint struct {
	Inst     int     // endpoint instance (-1 for a primary-output net)
	Net      int     // net feeding the endpoint
	SlackPs  float64 // setup slack
	Arrival  float64 // data arrival time, ps
	Depth    int     // logic depth of the worst path
	WirePs   float64 // wire-delay component along the worst path
	SlewPs   float64 // arriving transition time
	FanoutLd float64 // load on the endpoint net, fF
}

// Report is the result of one analysis run.
type Report struct {
	Engine    Engine
	PathBased bool
	SI        bool

	WNSPs      float64 // worst negative slack (ps; positive = met)
	TNSPs      float64 // total negative slack (ps, <= 0)
	Endpoints  []Endpoint
	Violations int // endpoints with negative slack

	// MaxFreqGHz is the highest clock frequency (GHz) at which WNS
	// would be zero, given the analyzed arrival times.
	MaxFreqGHz float64

	// CostUnits is the simulated analysis runtime cost (arbitrary
	// units, ~proportional to a real engine's CPU time).
	CostUnits float64

	// CriticalPath lists instance IDs on the worst path, launch to
	// capture.
	CriticalPath []int

	// sorted caches the ascending-slack view served by WorstEndpoints,
	// built once per report instead of copy+sort on every call, and keys
	// is its sort's scratch. Until then both are empty, and an Analyzer's
	// report keeps the last report's storage in them.
	sorted []Endpoint
	keys   []sortKey
}

type sortKey struct {
	slack float64
	idx   int
}

// WorstEndpoints returns the k endpoints with smallest slack, ascending.
// The returned slice is a view into a per-report cache shared by all
// calls; callers must not modify it.
//
// The sort is unstable and slacks tie, so the permutation is part of the
// QoR contract (synth shuffles it): the one sort.Slice on the endpoints
// with less = "slack smaller" produced. pdqsort's moves follow from the
// comparison outcomes alone, so sorting (slack, index) keys and gathering
// gives it without swapping 64-byte structs by reflection; a test pins it.
func (r *Report) WorstEndpoints(k int) []Endpoint {
	if len(r.sorted) == 0 && len(r.Endpoints) > 0 {
		keys := resize(r.keys, len(r.Endpoints))
		for i := range keys {
			keys[i] = sortKey{r.Endpoints[i].SlackPs, i}
		}
		slices.SortFunc(keys, func(a, b sortKey) int {
			switch {
			case a.slack < b.slack:
				return -1
			case b.slack < a.slack:
				return 1
			}
			return 0
		})
		sorted := resize(r.sorted, len(keys))
		for i, k := range keys {
			sorted[i] = r.Endpoints[k.idx]
		}
		r.sorted, r.keys = sorted, keys
	}
	if k > len(r.sorted) {
		k = len(r.sorted)
	}
	return r.sorted[:k]
}

// Summary returns a copy of the report without its per-endpoint
// artifacts (Endpoints, CriticalPath and the sorted view): the scalar
// part a campaign record keeps.
func (r *Report) Summary() *Report {
	s := *r
	s.Endpoints, s.CriticalPath, s.sorted, s.keys = nil, nil, nil, nil
	return &s
}

// arrivalState tracks per-net timing during propagation.
type arrivalState struct {
	arrival float64 // worst arrival at net (driver output + wire), ps
	slew    float64 // worst slew at net, ps
	wire    float64 // accumulated wire delay on worst path
	depth   int32   // stages on worst path
	from    int32   // fanin net of the driver on the worst path (-1 = source)
}

// globalDerate returns the stage-delay multiplier shared by every
// instance: the uniform guardband times the corner cell factor.
func globalDerate(cfg *Config) float64 {
	cellF, _, _ := cfg.Corner.factors()
	return (1 + cfg.DeratePct/100) * cellF
}

// sourceState computes the timing state of a source net — a primary
// input or a register Q output. ok is false when the net is neither (a
// combinationally driven or clock net). Like every stage function it is
// handed the net's netlist.Electricals instead of walking the pins: an
// Analyzer's table entry, or Incremental's call.
func sourceState(g *Graph, n *netlist.Netlist, cfg *Config, derate float64, netID int, load, length float64) (st arrivalState, ok bool) {
	switch f := g.flags[netID]; {
	case f&netInput != 0:
		return arrivalState{slew: 30, from: -1}, true
	case f&netRegister == 0:
		return arrivalState{}, false
	}
	id := int(g.driver[netID])
	drv := &n.Insts[id].Cell
	w := wireDelay(n.Lib.Wire, cfg, drv.Resist, length)
	return arrivalState{
		arrival: cfg.skew(id) + drv.ClkToQ*derate*cfg.instDerate(id) + w,
		slew:    drv.Slew(load),
		wire:    w,
		from:    -1,
	}, true
}

// combState computes the state of the output net of a stage — a
// combinational instance above level 0 with an output net, whose
// electricals the caller passes — from the current states of its fanin
// nets. ok is false when no fanin has a finite arrival.
func combState(g *Graph, n *netlist.Netlist, cfg *Config, derate float64, id int, state []arrivalState, load, length float64) (st arrivalState, ok bool) {
	cell := &n.Insts[id].Cell
	delay, scale := cell.Delay(load), derate*cfg.instDerate(id) // the same for every fanin
	var worst *arrivalState
	arrival, from := math.Inf(-1), int32(-1)
	for _, faninNet := range g.Fanins(id) {
		in := &state[faninNet]
		if math.IsInf(in.arrival, -1) {
			continue
		}
		d := delay
		if cfg.Engine == Signoff {
			// Slew-dependent stage delay: slow input edges
			// stretch the stage. The fast engine ignores
			// this, which is one miscorrelation source.
			d *= 1 + in.slew/(900/derate)
		}
		d *= scale
		if a := in.arrival + d; a > arrival {
			worst, arrival, from = in, a, faninNet
		}
	}
	if worst == nil {
		return arrivalState{}, false
	}
	w := wireDelay(n.Lib.Wire, cfg, cell.Resist, length)
	return arrivalState{
		arrival: arrival + w,
		slew:    cell.Slew(load),
		depth:   worst.depth + 1,
		wire:    worst.wire + w,
		from:    from,
	}, true
}

// ffEndpoint builds the setup endpoint of a flip-flop D pin at the clock
// period periodPs from the state of the net feeding it and that net's
// load, including path-based recovery when the configuration applies it.
// The period enters an analysis here and in netEndpoint only: propagation
// never reads it.
func ffEndpoint(n *netlist.Netlist, cfg *Config, setupF, periodPs float64, ff, dNet int, st *arrivalState, load float64) Endpoint {
	required := periodPs + cfg.skew(ff) - n.Insts[ff].Cell.SetupTime*(1+cfg.DeratePct/100)*setupF
	return endpoint(cfg, ff, dNet, required, st, load)
}

// netEndpoint builds the endpoint of an externally loaded net at the clock
// period periodPs.
func netEndpoint(cfg *Config, periodPs float64, netID int, st *arrivalState, load float64) Endpoint {
	return endpoint(cfg, -1, netID, periodPs, st, load)
}

func endpoint(cfg *Config, inst, netID int, required float64, st *arrivalState, load float64) Endpoint {
	ep := Endpoint{
		Inst: inst, Net: netID,
		SlackPs: required - st.arrival, Arrival: st.arrival,
		Depth: int(st.depth), WirePs: st.wire, SlewPs: st.slew,
		FanoutLd: load,
	}
	if cfg.pbaApplies() {
		ep.SlackPs += pbaRecovery(&ep)
	}
	return ep
}

// Analyze runs static timing analysis and returns a report. The netlist's
// ClockPeriodPs is the setup constraint. It is the one-shot call of
// Analyzer.Analyze.
func Analyze(n *netlist.Netlist, cfg Config) *Report {
	return new(Analyzer).Analyze(Compile(n), cfg)
}

// Analyzer holds what an analysis works in, for a caller that makes many.
// The zero value is ready. Per call it sweeps arrivals over the graph it is
// handed and fills endpoints, so no result depends on an earlier call — but
// the report it returns is its own, overwritten by the next call. Not safe
// for concurrent use, except ReportAt and WNSAt, which only read it.
type Analyzer struct {
	g     *Graph // the last analysis's graph and configuration
	cfg   Config
	state []arrivalState
	load  []float64 // NetLoad of every net

	rep  *Report    // the report every call fills
	eps  []Endpoint // its endpoint storage
	path []int      // its critical-path storage
}

// Load returns the net's NetLoad as of the last Analyze: stale once a cell
// on the net is resized or moved.
func (a *Analyzer) Load(netID int) float64 { return a.load[netID] }

// propagate fills the workspace for g's netlist in one sweep: the sources,
// then the stages in level order. Each net's pins are walked once, here,
// for everything downstream: a stage's output net by the stage, every
// other net before the stages. A stage's output starts unreached, so a
// stage whose levels do not order it after a fanin reads that fanin as
// unreached, never as the last analysis left it. Nothing here reads the
// clock period.
func (a *Analyzer) propagate(g *Graph, cfg *Config, derate float64) {
	n := g.n
	a.state, a.load = resize(a.state, len(n.Nets)), resize(a.load, len(n.Nets))
	state, loads := a.state, a.load
	unreached := arrivalState{arrival: math.Inf(-1), from: -1}
	for i := range state {
		if g.flags[i]&netStaged != 0 {
			state[i] = unreached
			continue
		}
		load, length := n.Electricals(i)
		loads[i] = load
		st, ok := sourceState(g, n, cfg, derate, i, load, length)
		if !ok {
			st = unreached
		}
		state[i] = st
	}
	for _, s := range g.stages {
		load, length := n.Electricals(int(s.out))
		loads[s.out] = load
		if st, ok := combState(g, n, cfg, derate, int(s.inst), state, load, length); ok {
			state[s.out] = st
		}
	}
}

// endpoints hands add the endpoints of the propagated state at the clock
// period periodPs in report order: flip-flop D pins in register order, then
// externally loaded nets.
func (a *Analyzer) endpoints(periodPs float64, add func(Endpoint)) {
	g, cfg := a.g, &a.cfg
	_, _, setupF := cfg.Corner.factors()
	for _, f := range g.ffs {
		if st := &a.state[f.d]; !math.IsInf(st.arrival, -1) {
			add(ffEndpoint(g.n, cfg, setupF, periodPs, int(f.ff), int(f.d), st, a.load[f.d]))
		}
	}
	for _, net := range g.extEnds {
		if st := &a.state[net]; !math.IsInf(st.arrival, -1) {
			add(netEndpoint(cfg, periodPs, int(net), st, a.load[net]))
		}
	}
}

// Analyze is the package function Analyze of g's netlist in this workspace.
// The report is the Analyzer's: valid until its next call.
func (a *Analyzer) Analyze(g *Graph, cfg Config) *Report {
	a.g, a.cfg = g, cfg
	a.propagate(g, &a.cfg, globalDerate(&a.cfg))
	if a.rep == nil {
		a.rep = new(Report)
	}
	r := a.rep
	*r = Report{sorted: r.sorted[:0], keys: r.keys[:0]}
	// Endpoints into storage sized for all of them.
	a.eps, a.path = a.report(g.n.ClockPeriodPs, r, resize(a.eps, len(g.ffs)+len(g.extEnds))[:0], a.path[:0])
	return r
}

// ReportAt returns, in a report of its own, what Analyze of the last
// analysis's netlist and configuration returns when the netlist's
// ClockPeriodPs is periodPs. Arrivals do not depend on the period, so it
// evaluates the endpoints of the propagated state again and propagates
// nothing. The last analysis must stand: no cell resized since. Where the
// cells sit does not matter, as the loads and arrivals are the analysis's.
// It does not modify the Analyzer, so concurrent ReportAt and WNSAt calls
// are safe.
func (a *Analyzer) ReportAt(periodPs float64) *Report {
	r := new(Report)
	a.report(periodPs, r, make([]Endpoint, 0, len(a.g.ffs)+len(a.g.extEnds)), nil)
	return r
}

// WNSAt is ReportAt(periodPs).WNSPs, computed without allocating.
func (a *Analyzer) WNSAt(periodPs float64) float64 {
	wns, found := math.Inf(1), false
	a.endpoints(periodPs, func(ep Endpoint) {
		found = true
		if ep.SlackPs < wns {
			wns = ep.SlackPs
		}
	})
	if !found {
		return periodPs
	}
	return wns
}

// report fills r, a zero report but for its sort storage, from the
// propagated state at the clock period periodPs: its endpoints go into eps
// and its critical path into path, both empty, and come back for reuse.
func (a *Analyzer) report(periodPs float64, r *Report, eps []Endpoint, path []int) ([]Endpoint, []int) {
	r.Engine, r.PathBased, r.SI, r.WNSPs = a.cfg.Engine, a.cfg.PathBased, a.cfg.SI, math.Inf(1)
	worstNet := -1 // no endpoint, no critical path
	a.endpoints(periodPs, func(ep Endpoint) {
		eps = append(eps, ep)
		if ep.SlackPs < r.WNSPs {
			r.WNSPs = ep.SlackPs
			worstNet = ep.Net
		}
		if ep.SlackPs < 0 {
			r.TNSPs += ep.SlackPs
			r.Violations++
		}
	})
	if len(eps) > 0 {
		r.Endpoints = eps
	} else {
		r.WNSPs = periodPs
	}

	// Critical path retrace.
	if worstNet >= 0 {
		path = retrace(a.g, worstNet, a.state, path)
		if len(path) > 0 {
			r.CriticalPath = path
		}
	}

	// Max frequency: arrival of the worst endpoint fixes the minimum
	// feasible period.
	if worstArrival := periodPs - r.WNSPs; worstArrival > 0 {
		r.MaxFreqGHz = 1000 / worstArrival
	}

	r.CostUnits = costUnits(a.g.n, &a.cfg)
	return eps, path
}

// pbaRecovery returns the slack recovered by path-based analysis for an
// endpoint: proportional to path depth (each merge point contributed some
// pessimism) but bounded.
func pbaRecovery(ep *Endpoint) float64 {
	rec := 1.8 * float64(ep.Depth)
	if rec > 40 {
		rec = 40
	}
	return rec
}

// wireDelay returns the wire delay (ps) of a net of the given length for
// the configured engine. Fast lumps the wire cap at the driver (RC product
// only); signoff uses Elmore and, with SI on, a coupling push-out
// proportional to wire cap (long nets suffer more aggressor coupling).
func wireDelay(w cellib.Wire, cfg *Config, driverResist, length float64) float64 {
	_, wireF, _ := cfg.Corner.factors()
	switch cfg.Engine {
	case Fast:
		return wireF * driverResist * w.CapPerUm * length
	default:
		d := w.Delay(length, driverResist)
		if cfg.SI {
			// Coupling: half the sidewall cap switches against us.
			d += 0.35 * w.CapPerUm * length * driverResist
		}
		return wireF * d
	}
}

// retrace walks from an endpoint net back to the launch point via the
// recorded worst-path fanin nets, appending to path (launch to capture).
func retrace(g *Graph, endNet int, state []arrivalState, path []int) []int {
	start := len(path)
	netID := endNet
	for steps := 0; steps < len(g.reg)+2 && netID >= 0; steps++ {
		drv := int(g.driver[netID])
		if drv < 0 {
			break
		}
		path = append(path, drv)
		if g.reg[drv] {
			break
		}
		netID = int(state[netID].from)
	}
	// Reverse to launch->capture order.
	for i, j := start, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// costUnits models analysis runtime: signoff costs ~3x fast, SI ~+4x,
// path-based ~+6x, matching the qualitative cost ordering of Fig. 8.
func costUnits(n *netlist.Netlist, cfg *Config) float64 {
	base := float64(len(n.Insts)) / 1000
	mult := 1.0
	if cfg.Engine == Signoff {
		mult = 3
		if cfg.SI {
			mult += 4
		}
		if cfg.PathBased {
			mult += 6
		}
	}
	return base * mult
}

// resize returns s with length n, reallocated only when its capacity is
// short; the contents are the caller's to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
