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
// change notification (see incremental.go).
package sta

import (
	"math"
	"sort"

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
func (c Config) instDerate(inst int) float64 {
	if c.InstDerate == nil || inst >= len(c.InstDerate) || c.InstDerate[inst] <= 0 {
		return 1
	}
	return c.InstDerate[inst]
}

// skew returns the clock arrival offset of an instance (0 when unset).
func (c Config) skew(inst int) float64 {
	if c.ClockSkew == nil || inst >= len(c.ClockSkew) {
		return 0
	}
	return c.ClockSkew[inst]
}

// pbaApplies reports whether path-based recovery is in effect.
func (c Config) pbaApplies() bool { return c.PathBased && c.Engine == Signoff }

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
func (r *Report) WorstEndpoints(k int) []Endpoint {
	if r.sorted == nil {
		r.sorted = append([]Endpoint(nil), r.Endpoints...)
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].SlackPs < r.sorted[j].SlackPs })
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
func globalDerate(cfg Config) float64 {
	cellF, _, _ := cfg.Corner.factors()
	return (1 + cfg.DeratePct/100) * cellF
}

// sourceState computes the timing state of a source net — a primary
// input or a register Q output. ok is false when the net is neither (a
// combinationally driven or clock net).
func sourceState(n *netlist.Netlist, cfg Config, derate float64, netID int) (st arrivalState, ok bool) {
	net := &n.Nets[netID]
	if net.IsClock {
		return arrivalState{}, false
	}
	if net.Driver < 0 {
		return arrivalState{arrival: cfg.InputDelayPs, slew: 30, from: -1}, true
	}
	drv := &n.Insts[net.Driver]
	if !drv.Cell.Class.Sequential() {
		return arrivalState{}, false
	}
	w := wireDelay(n, netID, drv.Cell.Resist, cfg)
	return arrivalState{
		arrival: cfg.skew(net.Driver) + drv.Cell.ClkToQ*derate*cfg.instDerate(net.Driver) + w,
		slew:    drv.Cell.Slew(n.NetLoad(netID)),
		wire:    w,
		from:    -1,
	}, true
}

// combState computes the output-net state of a combinational instance
// from the current states of its fanin nets. ok is false when the
// instance is skipped by propagation (sequential, level 0, no output
// net) or no fanin has a finite arrival.
func combState(n *netlist.Netlist, cfg Config, derate float64, id int, state []arrivalState) (outNet int, st arrivalState, ok bool) {
	inst := &n.Insts[id]
	if inst.Cell.Class.Sequential() || inst.Level == 0 {
		return -1, arrivalState{}, false
	}
	outNet = n.FanoutNet[id]
	if outNet < 0 {
		return -1, arrivalState{}, false
	}
	load := n.NetLoad(outNet)
	var best arrivalState
	best.arrival = math.Inf(-1)
	for _, faninNet := range n.FaninNet[id] {
		if faninNet < 0 {
			continue
		}
		in := state[faninNet]
		if math.IsInf(in.arrival, -1) {
			continue
		}
		d := inst.Cell.Delay(load)
		if cfg.Engine == Signoff {
			// Slew-dependent stage delay: slow input edges
			// stretch the stage. The fast engine ignores
			// this, which is one miscorrelation source.
			d *= 1 + in.slew/(900/derate)
		}
		d *= derate * cfg.instDerate(id)
		a := in.arrival + d
		if a > best.arrival {
			best = arrivalState{
				arrival: a,
				slew:    inst.Cell.Slew(load),
				depth:   in.depth + 1,
				wire:    in.wire,
				from:    faninNet,
			}
		}
	}
	if math.IsInf(best.arrival, -1) {
		return -1, arrivalState{}, false
	}
	w := wireDelay(n, outNet, inst.Cell.Resist, cfg)
	best.arrival += w
	best.wire += w
	return outNet, best, true
}

// ffEndpoint builds the setup endpoint of a flip-flop D pin from the
// state of the net feeding it, including path-based recovery when the
// configuration applies it.
func ffEndpoint(n *netlist.Netlist, cfg Config, setupF float64, ff, dNet int, st arrivalState) Endpoint {
	required := n.ClockPeriodPs + cfg.skew(ff) - n.Insts[ff].Cell.SetupTime*(1+cfg.DeratePct/100)*setupF
	ep := Endpoint{
		Inst: ff, Net: dNet,
		SlackPs: required - st.arrival, Arrival: st.arrival,
		Depth: st.depth, WirePs: st.wire, SlewPs: st.slew,
		FanoutLd: n.NetLoad(dNet),
	}
	if cfg.pbaApplies() {
		ep.SlackPs += pbaRecovery(&ep)
	}
	return ep
}

// netEndpoint builds the endpoint of an externally loaded net.
func netEndpoint(n *netlist.Netlist, cfg Config, netID int, st arrivalState) Endpoint {
	ep := Endpoint{
		Inst: -1, Net: netID,
		SlackPs: n.ClockPeriodPs - st.arrival, Arrival: st.arrival,
		Depth: st.depth, WirePs: st.wire, SlewPs: st.slew,
		FanoutLd: n.NetLoad(netID),
	}
	if cfg.pbaApplies() {
		ep.SlackPs += pbaRecovery(&ep)
	}
	return ep
}

// Analyze runs static timing analysis and returns a report. The netlist's
// ClockPeriodPs is the setup constraint.
func Analyze(n *netlist.Netlist, cfg Config) *Report {
	r := &Report{Engine: cfg.Engine, PathBased: cfg.PathBased, SI: cfg.SI, WNSPs: math.Inf(1)}
	_, _, setupF := cfg.Corner.factors()
	derate := globalDerate(cfg)

	state := make([]arrivalState, len(n.Nets))
	for i := range state {
		state[i].arrival = math.Inf(-1)
		state[i].from = -1
	}

	// Source arrivals: primary inputs and register Q pins.
	for i := range n.Nets {
		if st, ok := sourceState(n, cfg, derate, i); ok {
			state[i] = st
		}
	}

	// Topological propagation through combinational logic.
	for _, id := range n.TopoOrder() {
		if outNet, st, ok := combState(n, cfg, derate, id, state); ok {
			state[outNet] = st
		}
	}

	// Endpoints: flip-flop D pins and externally loaded nets. Sized once:
	// append-growth was most of what an analysis allocated.
	seq := n.Sequential()
	numEnds := len(seq)
	for i := range n.Nets {
		if n.Nets[i].ExternalCap > 0 && !n.Nets[i].IsClock {
			numEnds++
		}
	}
	r.Endpoints = make([]Endpoint, 0, numEnds)
	var worstEnd Endpoint
	worstEnd.SlackPs = math.Inf(1)
	addEndpoint := func(ep Endpoint) {
		r.Endpoints = append(r.Endpoints, ep)
		if ep.SlackPs < r.WNSPs {
			r.WNSPs = ep.SlackPs
			worstEnd = ep
		}
		if ep.SlackPs < 0 {
			r.TNSPs += ep.SlackPs
			r.Violations++
		}
	}
	for _, ff := range seq {
		dNet := n.FaninNet[ff][0]
		if dNet < 0 {
			continue
		}
		st := state[dNet]
		if math.IsInf(st.arrival, -1) {
			continue
		}
		addEndpoint(ffEndpoint(n, cfg, setupF, ff, dNet, st))
	}
	for i := range n.Nets {
		if n.Nets[i].ExternalCap <= 0 || n.Nets[i].IsClock {
			continue
		}
		st := state[i]
		if math.IsInf(st.arrival, -1) {
			continue
		}
		addEndpoint(netEndpoint(n, cfg, i, st))
	}

	if len(r.Endpoints) == 0 {
		r.Endpoints = nil // as an append-grown report without endpoints was
		r.WNSPs = n.ClockPeriodPs
	}

	// Critical path retrace.
	if worstEnd.Net >= 0 {
		r.CriticalPath = retrace(n, worstEnd.Net, state)
	}

	// Max frequency: arrival of the worst endpoint fixes the minimum
	// feasible period.
	worstArrival := n.ClockPeriodPs - r.WNSPs
	if worstArrival > 0 {
		r.MaxFreqGHz = 1000 / worstArrival
	}

	r.CostUnits = costUnits(n, cfg)
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

// wireDelay returns the wire delay (ps) of a net for the configured
// engine. Fast lumps the wire cap at the driver (RC product only);
// signoff uses Elmore and, with SI on, a coupling push-out proportional
// to wire cap (long nets suffer more aggressor coupling).
func wireDelay(n *netlist.Netlist, netID int, driverResist float64, cfg Config) float64 {
	length := n.HPWL(netID)
	w := n.Lib.Wire
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
func costUnits(n *netlist.Netlist, cfg Config) float64 {
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
