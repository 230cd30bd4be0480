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
// change notification (see incremental.go). An Analyzer is Analyze's
// workspace, kept by a caller that analyses again and again (synth.Run):
// it walks each net's pins once per analysis into a load/length table
// that the stage arithmetic and the caller both read.
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
	// InputDelayPs is the arrival time budget consumed outside the
	// block for primary inputs.
	InputDelayPs float64
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
	// built once per report instead of copy+sort on every call.
	sorted []Endpoint
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
	if r.sorted == nil && len(r.Endpoints) > 0 {
		type key struct {
			slack float64
			idx   int
		}
		keys := make([]key, len(r.Endpoints))
		for i := range keys {
			keys[i] = key{r.Endpoints[i].SlackPs, i}
		}
		slices.SortFunc(keys, func(a, b key) int {
			switch {
			case a.slack < b.slack:
				return -1
			case b.slack < a.slack:
				return 1
			}
			return 0
		})
		r.sorted = make([]Endpoint, len(keys))
		for i, k := range keys {
			r.sorted[i] = r.Endpoints[k.idx]
		}
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
	s.Endpoints, s.CriticalPath, s.sorted = nil, nil, nil
	return &s
}

// arrivalState tracks per-net timing during propagation.
type arrivalState struct {
	arrival float64 // worst arrival at net (driver output + wire), ps
	slew    float64 // worst slew at net, ps
	depth   int     // stages on worst path
	wire    float64 // accumulated wire delay on worst path
	from    int     // fanin net of the driver on the worst path (-1 = source)
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
func sourceState(n *netlist.Netlist, cfg *Config, derate float64, netID int, load, length float64) (st arrivalState, ok bool) {
	net := &n.Nets[netID]
	if net.IsClock {
		return arrivalState{}, false
	}
	if net.Driver < 0 {
		return arrivalState{arrival: cfg.InputDelayPs, slew: 30, from: -1}, true
	}
	drv := &n.Insts[net.Driver].Cell
	if !drv.Class.Sequential() {
		return arrivalState{}, false
	}
	w := wireDelay(n.Lib.Wire, cfg, drv.Resist, length)
	return arrivalState{
		arrival: cfg.skew(net.Driver) + drv.ClkToQ*derate*cfg.instDerate(net.Driver) + w,
		slew:    drv.Slew(load),
		wire:    w,
		from:    -1,
	}, true
}

// combState computes the state of the output net of a combinational
// instance — the caller looks it up in FanoutNet, and passes its
// electricals — from the current states of the fanin nets. ok is false
// when the instance is skipped by propagation (sequential, level 0) or
// no fanin has a finite arrival.
func combState(n *netlist.Netlist, cfg *Config, derate float64, id int, state []arrivalState, load, length float64) (st arrivalState, ok bool) {
	inst := &n.Insts[id]
	if inst.Cell.Class.Sequential() || inst.Level == 0 {
		return arrivalState{}, false
	}
	cell := &inst.Cell
	delay, scale := cell.Delay(load), derate*cfg.instDerate(id) // the same for every fanin
	var worst *arrivalState
	arrival, from := math.Inf(-1), -1
	for _, faninNet := range n.FaninNet[id] {
		if faninNet < 0 {
			continue
		}
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

// ffEndpoint builds the setup endpoint of a flip-flop D pin from the
// state of the net feeding it and that net's load, including path-based
// recovery when the configuration applies it.
func ffEndpoint(n *netlist.Netlist, cfg *Config, setupF float64, ff, dNet int, st *arrivalState, load float64) Endpoint {
	required := n.ClockPeriodPs + cfg.skew(ff) - n.Insts[ff].Cell.SetupTime*(1+cfg.DeratePct/100)*setupF
	return endpoint(cfg, ff, dNet, required, st, load)
}

// netEndpoint builds the endpoint of an externally loaded net.
func netEndpoint(n *netlist.Netlist, cfg *Config, netID int, st *arrivalState, load float64) Endpoint {
	return endpoint(cfg, -1, netID, n.ClockPeriodPs, st, load)
}

func endpoint(cfg *Config, inst, netID int, required float64, st *arrivalState, load float64) Endpoint {
	ep := Endpoint{
		Inst: inst, Net: netID,
		SlackPs: required - st.arrival, Arrival: st.arrival,
		Depth: st.depth, WirePs: st.wire, SlewPs: st.slew,
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
	return new(Analyzer).Analyze(n, cfg)
}

// Analyzer holds what an analysis works in, for a caller that makes many.
// The zero value is ready. Every Analyze overwrites all of it, sized to
// that call's netlist — another one, grown, re-levelled, moved — so no
// result depends on an earlier call. Not safe for concurrent use.
type Analyzer struct {
	state []arrivalState
	elec  []netElec // netlist.Electricals of every net
	ints  []int     // one slab: the level order, its per-level cursors, seq
	seq   []int     // registers, ascending
}

type netElec struct{ load, length float64 }

// Load returns the net's NetLoad as of the last Analyze: stale once a cell
// on the net is resized or moved.
func (a *Analyzer) Load(netID int) float64 { return a.elec[netID].load }

// propagate fills the workspace for n: each net's pins are walked once,
// here, for everything downstream; then one sweep in level order.
func (a *Analyzer) propagate(n *netlist.Netlist, cfg *Config, derate float64) {
	if cap(a.state) < len(n.Nets) {
		a.state, a.elec = make([]arrivalState, len(n.Nets)), make([]netElec, len(n.Nets))
	}
	a.state, a.elec = a.state[:len(n.Nets)], a.elec[:len(n.Nets)]
	state, elec := a.state, a.elec
	for i := range n.Nets {
		e := &elec[i]
		e.load, e.length = n.Electricals(i)
		st, ok := sourceState(n, cfg, derate, i, e.load, e.length)
		if !ok {
			st = arrivalState{arrival: math.Inf(-1), from: -1}
		}
		state[i] = st
	}

	// Level order as netlist.TopoOrder's counting sort gives it, and the
	// registers as netlist.Sequential lists them, into one reused slab.
	maxLevel, numSeq := 0, 0
	for i := range n.Insts {
		maxLevel = max(maxLevel, n.Insts[i].Level)
		if n.Insts[i].Cell.Class.Sequential() {
			numSeq++
		}
	}
	numInsts, numLevels := len(n.Insts), maxLevel+2
	if need := numInsts + numLevels + numSeq; cap(a.ints) < need {
		a.ints = make([]int, need)
	}
	order, start, seq := a.ints[:numInsts], a.ints[numInsts:numInsts+numLevels], a.ints[numInsts+numLevels:][:0]
	clear(start) // start[l+1] counts level l, then prefix-summed
	for i := range n.Insts {
		start[n.Insts[i].Level+1]++
	}
	for l := 1; l < numLevels; l++ {
		start[l] += start[l-1]
	}
	for i := range n.Insts {
		l := n.Insts[i].Level
		order[start[l]] = i
		start[l]++
		if n.Insts[i].Cell.Class.Sequential() {
			seq = append(seq, i)
		}
	}
	a.seq = seq

	for _, id := range order {
		out := n.FanoutNet[id]
		if out < 0 {
			continue
		}
		if st, ok := combState(n, cfg, derate, id, state, elec[out].load, elec[out].length); ok {
			state[out] = st
		}
	}
}

// endpoints hands add the endpoints of the propagated state in report
// order: flip-flop D pins in seq order, then externally loaded nets.
func (a *Analyzer) endpoints(n *netlist.Netlist, cfg *Config, add func(Endpoint)) {
	_, _, setupF := cfg.Corner.factors()
	for _, ff := range a.seq {
		dNet := n.FaninNet[ff][0]
		if dNet < 0 {
			continue
		}
		if st := &a.state[dNet]; !math.IsInf(st.arrival, -1) {
			add(ffEndpoint(n, cfg, setupF, ff, dNet, st, a.elec[dNet].load))
		}
	}
	for i := range n.Nets {
		if n.Nets[i].ExternalCap <= 0 || n.Nets[i].IsClock {
			continue
		}
		if st := &a.state[i]; !math.IsInf(st.arrival, -1) {
			add(netEndpoint(n, cfg, i, st, a.elec[i].load))
		}
	}
}

// Analyze is the package function Analyze in this workspace.
func (a *Analyzer) Analyze(n *netlist.Netlist, cfg Config) *Report {
	r := &Report{Engine: cfg.Engine, PathBased: cfg.PathBased, SI: cfg.SI, WNSPs: math.Inf(1)}
	a.propagate(n, &cfg, globalDerate(&cfg))

	// Endpoints: flip-flop D pins and externally loaded nets. Sized once:
	// append-growth was most of what an analysis allocated.
	numEnds := len(a.seq)
	for i := range n.Nets {
		if n.Nets[i].ExternalCap > 0 && !n.Nets[i].IsClock {
			numEnds++
		}
	}
	r.Endpoints = make([]Endpoint, 0, numEnds)
	worstNet := -1 // no endpoint, no critical path
	a.endpoints(n, &cfg, func(ep Endpoint) {
		r.Endpoints = append(r.Endpoints, ep)
		if ep.SlackPs < r.WNSPs {
			r.WNSPs = ep.SlackPs
			worstNet = ep.Net
		}
		if ep.SlackPs < 0 {
			r.TNSPs += ep.SlackPs
			r.Violations++
		}
	})

	if len(r.Endpoints) == 0 {
		r.Endpoints = nil // as an append-grown report without endpoints was
		r.WNSPs = n.ClockPeriodPs
	}

	// Critical path retrace.
	if worstNet >= 0 {
		r.CriticalPath = retrace(n, worstNet, a.state)
	}

	// Max frequency: arrival of the worst endpoint fixes the minimum
	// feasible period.
	worstArrival := n.ClockPeriodPs - r.WNSPs
	if worstArrival > 0 {
		r.MaxFreqGHz = 1000 / worstArrival
	}

	r.CostUnits = costUnits(n, &cfg)
	return r
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
// recorded worst-path fanin nets.
func retrace(n *netlist.Netlist, endNet int, state []arrivalState) []int {
	var path []int
	netID := endNet
	for steps := 0; steps < len(n.Insts)+2 && netID >= 0; steps++ {
		drv := n.Nets[netID].Driver
		if drv < 0 {
			break
		}
		path = append(path, drv)
		if n.Insts[drv].Cell.Class.Sequential() {
			break
		}
		netID = state[netID].from
	}
	// Reverse to launch->capture order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
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
