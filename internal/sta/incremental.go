package sta

// Incremental timing: the "signoff timer in the optimization loop" of
// the paper's ref [24] is only affordable when a resize does not pay for
// a full-graph propagation. This engine holds the arrival/slew/depth
// state of one full analysis and, on a change notification (Resize,
// MoveNet, SetDerate), re-propagates only the affected downstream cone
// using a level-bucketed worklist with an epsilon-stable early cutoff:
// propagation stops at any net whose recomputed state is unchanged.
// Endpoint slacks, WNS/TNS and the critical path are maintained through
// a slack-indexed lazy min-heap instead of full endpoint rebuilds, and a
// Checkpoint/Rollback pair makes speculative moves (try-downsize-then-
// revert, annealing rejects) O(touched cone) instead of O(graph).
//
// With the default Epsilon of 0 the engine is exact: every query result
// is bit-identical to a fresh Analyze of the mutated netlist, because
// both paths share the same per-net arithmetic (sourceState, combState,
// the endpoint builders) and the cutoff only prunes recomputations whose
// inputs — and therefore outputs — are unchanged.

import (
	"container/heap"
	"sort"

	"repro/internal/netlist"
)

// slackEntry is one lazy heap entry; stale entries (version mismatch)
// are discarded on pop.
type slackEntry struct {
	slack float64
	idx   int // endpoint index
	ver   int // endpoint version at push time
}

// slackHeap is a min-heap on (slack, endpoint index).
type slackHeap []slackEntry

func (h slackHeap) Len() int { return len(h) }
func (h slackHeap) Less(i, j int) bool {
	if h[i].slack != h[j].slack {
		return h[i].slack < h[j].slack
	}
	return h[i].idx < h[j].idx
}
func (h slackHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *slackHeap) Push(x interface{}) { *h = append(*h, x.(slackEntry)) }
func (h *slackHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type netUndo struct {
	net int
	old arrivalState
}

type epUndo struct {
	idx int
	old Endpoint
}

// Incremental is a stateful timing engine over one netlist. It is built
// from a full propagation and kept consistent through change
// notifications; it is not safe for concurrent use.
type Incremental struct {
	n   *netlist.Netlist
	g   *Graph // n's topology, compiled by the full build
	cfg Config

	// Epsilon is the stable-frontier cutoff: propagation stops at a net
	// whose recomputed arrival/slew/wire all moved by no more than this
	// (ps). 0 (the default) demands exact equality, which keeps every
	// query bit-identical to Analyze; a positive value trades a bounded
	// slack error for earlier cutoff.
	Epsilon float64

	derate float64 // global derate * corner cell factor
	setupF float64

	state []arrivalState // per-net

	// Endpoints in the same order Analyze reports them (registers in
	// Sequential() order, then externally loaded nets ascending).
	endpoints []Endpoint
	epOfInst  []int // FF instance -> endpoint index, -1
	epOfNet   []int // net -> endpoint index (external-load endpoints), -1

	// tns is delta-maintained with Kahan compensation (tnsComp), keeping
	// the accumulated rounding error under the differential tolerance
	// even across thousands of endpoint updates.
	tns        float64
	tnsComp    float64
	violations int

	// Slack index: lazy min-heap with per-endpoint versions.
	slacks  slackHeap
	version []int

	// Dirty-frontier worklist, bucketed by logic level.
	buckets  [][]int
	inBucket []bool
	minLevel int

	// Work accounting. propagated counts instance recomputations; a full
	// Analyze costs len(Insts) of them.
	updates    int
	propagated int
	unitCost   float64 // CostUnits of one full analysis at this fidelity

	// Checkpoint journal (single outstanding checkpoint). Journaling is
	// first-touch: each net/endpoint is saved at most once per epoch.
	cpActive      bool
	epoch         int
	netStamp      []int
	epStamp       []int
	journalNet    []netUndo
	journalEp     []epUndo
	journalDerate []derateUndo
	cpTNS         float64
	cpTNSComp     float64
	cpViol        int
}

type derateUndo struct {
	inst int
	old  float64
}

// NewIncremental builds the engine with one full propagation. The
// netlist is captured by reference: the caller mutates it (cell sizes,
// placement) and notifies the engine. The config's ClockSkew/InstDerate
// slices are copied; later derate changes must go through SetDerate.
func NewIncremental(n *netlist.Netlist, cfg Config) *Incremental {
	cfg.ClockSkew = append([]float64(nil), cfg.ClockSkew...)
	cfg.InstDerate = append([]float64(nil), cfg.InstDerate...)
	_, _, setupF := cfg.Corner.factors()
	maxLevel := 0
	for i := range n.Insts {
		if n.Insts[i].Level > maxLevel {
			maxLevel = n.Insts[i].Level
		}
	}
	inc := &Incremental{
		n:        n,
		cfg:      cfg,
		derate:   globalDerate(&cfg),
		setupF:   setupF,
		buckets:  make([][]int, maxLevel+1),
		inBucket: make([]bool, len(n.Insts)),
		minLevel: maxLevel + 1,
		epOfInst: make([]int, len(n.Insts)),
		epOfNet:  make([]int, len(n.Nets)),
		netStamp: make([]int, len(n.Nets)),
		unitCost: costUnits(n, &cfg),
	}
	inc.rebuild()
	return inc
}

// rebuild runs Analyze's own full propagation and endpoint construction.
func (inc *Incremental) rebuild() {
	n, cfg := inc.n, &inc.cfg
	var full Analyzer
	inc.g = Compile(n)
	full.propagate(inc.g, cfg, inc.derate)
	inc.state = full.state

	inc.endpoints = inc.endpoints[:0]
	for i := range inc.epOfInst {
		inc.epOfInst[i] = -1
	}
	for i := range inc.epOfNet {
		inc.epOfNet[i] = -1
	}
	inc.tns, inc.tnsComp, inc.violations = 0, 0, 0
	full.endpoints(inc.g, cfg, func(ep Endpoint) {
		if ep.Inst >= 0 {
			inc.epOfInst[ep.Inst] = len(inc.endpoints)
		} else {
			inc.epOfNet[ep.Net] = len(inc.endpoints)
		}
		inc.endpoints = append(inc.endpoints, ep)
		if ep.SlackPs < 0 {
			inc.tns += ep.SlackPs
			inc.violations++
		}
	})

	inc.version = make([]int, len(inc.endpoints))
	inc.epStamp = make([]int, len(inc.endpoints))
	inc.slacks = inc.slacks[:0]
	for i, ep := range inc.endpoints {
		inc.slacks = append(inc.slacks, slackEntry{slack: ep.SlackPs, idx: i})
	}
	heap.Init(&inc.slacks)
	inc.propagated += len(n.Insts) // the full build counts as one Analyze
}

// ---- change notifications ----

// Resize must be called after the caller changes Insts[id].Cell. It
// re-propagates the affected cone: the instance's own stage (drive
// strength), its fanin nets' loads (input capacitance), and — for a
// register — its clock-to-q launch and setup requirement.
func (inc *Incremental) Resize(id int) {
	inc.updates++
	for _, f := range inc.n.FaninNet[id] {
		if f >= 0 {
			inc.touchNet(f)
		}
	}
	if inc.n.Insts[id].Cell.Class.Sequential() {
		if q := inc.n.FanoutNet[id]; q >= 0 {
			inc.refreshSource(q)
		}
		if idx := inc.epOfInst[id]; idx >= 0 {
			inc.refreshEndpoint(idx) // setup time changed
		}
	} else {
		inc.markDirty(id)
	}
	inc.flush()
}

// MoveNet must be called after the placement geometry of a net changes
// (any endpoint instance moved): its wire delay and wire load are
// recomputed and the downstream cone updated.
func (inc *Incremental) MoveNet(netID int) {
	inc.updates++
	inc.touchNet(netID)
	inc.flush()
}

// MoveInst must be called after Insts[id] moved: every incident net's
// geometry changed.
func (inc *Incremental) MoveInst(id int) {
	inc.updates++
	for _, f := range inc.n.FaninNet[id] {
		if f >= 0 {
			inc.touchNet(f)
		}
	}
	if out := inc.n.FanoutNet[id]; out >= 0 {
		inc.touchNet(out)
	}
	inc.flush()
}

// SetDerate changes the per-instance delay multiplier (<=0 resets to 1)
// and re-propagates the instance's cone.
func (inc *Incremental) SetDerate(id int, mult float64) {
	inc.updates++
	if inc.cfg.InstDerate == nil {
		inc.cfg.InstDerate = make([]float64, len(inc.n.Insts))
	}
	for len(inc.cfg.InstDerate) <= id {
		inc.cfg.InstDerate = append(inc.cfg.InstDerate, 0)
	}
	if inc.cpActive {
		inc.journalDerate = append(inc.journalDerate, derateUndo{inst: id, old: inc.cfg.InstDerate[id]})
	}
	inc.cfg.InstDerate[id] = mult
	if inc.n.Insts[id].Cell.Class.Sequential() {
		if q := inc.n.FanoutNet[id]; q >= 0 {
			inc.refreshSource(q)
		}
	} else {
		inc.markDirty(id)
	}
	inc.flush()
}

// touchNet handles a load or geometry change on a net: its driver's
// stage is recomputed (the driver delay depends on the net's load), and
// endpoint features that read the net's load are refreshed.
func (inc *Incremental) touchNet(f int) {
	net := &inc.n.Nets[f]
	if net.IsClock {
		return
	}
	if net.Driver >= 0 {
		if inc.n.Insts[net.Driver].Cell.Class.Sequential() {
			inc.refreshSource(f)
		} else {
			inc.markDirty(net.Driver)
		}
	}
	// Load-only effects on endpoint features (FanoutLd): the net may
	// itself be an external endpoint, or feed a register D pin.
	if idx := inc.epOfNet[f]; idx >= 0 {
		inc.refreshEndpoint(idx)
	}
	for _, s := range net.Sinks {
		if inc.n.Insts[s.Inst].Cell.Class.Sequential() {
			if idx := inc.epOfInst[s.Inst]; idx >= 0 {
				inc.refreshEndpoint(idx)
			}
		}
	}
}

// refreshSource recomputes a source net (PI or register Q) and seeds
// propagation if it changed.
func (inc *Incremental) refreshSource(netID int) {
	load, length := inc.n.Electricals(netID)
	st, ok := sourceState(inc.g, inc.n, &inc.cfg, inc.derate, netID, load, length)
	if !ok {
		return
	}
	if inc.stable(inc.state[netID], st) {
		return
	}
	inc.writeState(netID, st)
	inc.fanOut(netID)
}

// markDirty queues a combinational instance for recomputation.
func (inc *Incremental) markDirty(id int) {
	inst := &inc.n.Insts[id]
	if inst.Cell.Class.Sequential() || inst.Level == 0 || inc.n.FanoutNet[id] < 0 {
		return
	}
	if inc.inBucket[id] {
		return
	}
	inc.inBucket[id] = true
	inc.buckets[inst.Level] = append(inc.buckets[inst.Level], id)
	if inst.Level < inc.minLevel {
		inc.minLevel = inst.Level
	}
}

// fanOut pushes a changed net's consequences downstream: combinational
// sinks are queued, register D sinks and external endpoints refreshed.
func (inc *Incremental) fanOut(netID int) {
	for _, s := range inc.n.Nets[netID].Sinks {
		if inc.n.Insts[s.Inst].Cell.Class.Sequential() {
			if idx := inc.epOfInst[s.Inst]; idx >= 0 {
				inc.refreshEndpoint(idx)
			}
		} else {
			inc.markDirty(s.Inst)
		}
	}
	if idx := inc.epOfNet[netID]; idx >= 0 {
		inc.refreshEndpoint(idx)
	}
}

// flush drains the level-bucketed worklist in ascending level order.
// The level-increasing invariant of the netlist guarantees a processed
// instance only enqueues strictly higher levels, so one ascending sweep
// settles the frontier.
func (inc *Incremental) flush() {
	for l := inc.minLevel; l < len(inc.buckets); l++ {
		bucket := inc.buckets[l]
		for i := 0; i < len(bucket); i++ { // fanOut never appends to level l
			id := bucket[i]
			inc.inBucket[id] = false
			inc.propagated++
			outNet := inc.n.FanoutNet[id] // markDirty queues no instance without one
			load, length := inc.n.Electricals(outNet)
			st, ok := combState(inc.g, inc.n, &inc.cfg, inc.derate, id, inc.state, load, length)
			if !ok {
				continue
			}
			if inc.stable(inc.state[outNet], st) {
				continue // epsilon-stable: cone ends here
			}
			inc.writeState(outNet, st)
			inc.fanOut(outNet)
		}
		inc.buckets[l] = bucket[:0]
	}
	inc.minLevel = len(inc.buckets)
}

// stable reports whether a recomputed state is within the cutoff of the
// stored one. With Epsilon 0 this is exact equality, so the cutoff never
// changes results relative to a full propagation.
func (inc *Incremental) stable(old, new arrivalState) bool {
	if old.depth != new.depth || old.from != new.from {
		return false
	}
	return eqEps(old.arrival, new.arrival, inc.Epsilon) &&
		eqEps(old.slew, new.slew, inc.Epsilon) &&
		eqEps(old.wire, new.wire, inc.Epsilon)
}

func eqEps(a, b, eps float64) bool {
	if eps == 0 {
		return a == b
	}
	d := a - b
	return d <= eps && d >= -eps
}

func (inc *Incremental) writeState(netID int, st arrivalState) {
	if inc.cpActive && inc.netStamp[netID] != inc.epoch {
		inc.netStamp[netID] = inc.epoch
		inc.journalNet = append(inc.journalNet, netUndo{net: netID, old: inc.state[netID]})
	}
	inc.state[netID] = st
}

// refreshEndpoint recomputes one endpoint from current state and loads,
// updating TNS/violation aggregates and the slack index.
func (inc *Incremental) refreshEndpoint(idx int) {
	old := inc.endpoints[idx]
	st, load := &inc.state[old.Net], inc.n.NetLoad(old.Net)
	var ep Endpoint
	if old.Inst >= 0 {
		ep = ffEndpoint(inc.n, &inc.cfg, inc.setupF, old.Inst, old.Net, st, load)
	} else {
		ep = netEndpoint(inc.n, &inc.cfg, old.Net, st, load)
	}
	if ep == old {
		return
	}
	if inc.cpActive && inc.epStamp[idx] != inc.epoch {
		inc.epStamp[idx] = inc.epoch
		inc.journalEp = append(inc.journalEp, epUndo{idx: idx, old: old})
	}
	inc.addTNS(negPart(ep.SlackPs) - negPart(old.SlackPs))
	if old.SlackPs < 0 {
		inc.violations--
	}
	if ep.SlackPs < 0 {
		inc.violations++
	}
	inc.endpoints[idx] = ep
	inc.pushSlack(idx, ep.SlackPs)
}

func negPart(x float64) float64 {
	if x < 0 {
		return x
	}
	return 0
}

// addTNS applies a delta to the running TNS with Kahan compensation.
func (inc *Incremental) addTNS(delta float64) {
	y := delta - inc.tnsComp
	t := inc.tns + y
	inc.tnsComp = (t - inc.tns) - y
	inc.tns = t
}

func (inc *Incremental) pushSlack(idx int, slack float64) {
	inc.version[idx]++
	heap.Push(&inc.slacks, slackEntry{slack: slack, idx: idx, ver: inc.version[idx]})
	// Compact when stale entries dominate.
	if len(inc.slacks) > 4*len(inc.endpoints)+16 {
		inc.slacks = inc.slacks[:0]
		for i, ep := range inc.endpoints {
			inc.slacks = append(inc.slacks, slackEntry{slack: ep.SlackPs, idx: i, ver: inc.version[i]})
		}
		heap.Init(&inc.slacks)
	}
}

// ---- speculative moves ----

// Checkpoint begins a speculative region: every state/endpoint write
// until Commit or Rollback is journaled (first touch only). Nested
// checkpoints are not supported.
func (inc *Incremental) Checkpoint() {
	if inc.cpActive {
		panic("sta: nested Incremental.Checkpoint")
	}
	inc.cpActive = true
	inc.epoch++
	inc.cpTNS, inc.cpTNSComp, inc.cpViol = inc.tns, inc.tnsComp, inc.violations
	inc.journalNet = inc.journalNet[:0]
	inc.journalEp = inc.journalEp[:0]
	inc.journalDerate = inc.journalDerate[:0]
}

// Commit accepts the speculative region, discarding the journal.
func (inc *Incremental) Commit() {
	if !inc.cpActive {
		panic("sta: Commit without Checkpoint")
	}
	inc.cpActive = false
}

// Rollback restores the engine to the Checkpoint state in O(touched).
// The caller must separately revert its own netlist mutations (cell
// sizes, placement) made since the checkpoint.
func (inc *Incremental) Rollback() {
	if !inc.cpActive {
		panic("sta: Rollback without Checkpoint")
	}
	for i := len(inc.journalNet) - 1; i >= 0; i-- {
		u := inc.journalNet[i]
		inc.state[u.net] = u.old
	}
	for i := len(inc.journalEp) - 1; i >= 0; i-- {
		u := inc.journalEp[i]
		inc.endpoints[u.idx] = u.old
		inc.pushSlack(u.idx, u.old.SlackPs)
	}
	for i := len(inc.journalDerate) - 1; i >= 0; i-- {
		u := inc.journalDerate[i]
		inc.cfg.InstDerate[u.inst] = u.old
	}
	inc.tns, inc.tnsComp, inc.violations = inc.cpTNS, inc.cpTNSComp, inc.cpViol
	inc.journalNet = inc.journalNet[:0]
	inc.journalEp = inc.journalEp[:0]
	inc.journalDerate = inc.journalDerate[:0]
	inc.cpActive = false
}

// ---- queries ----

// WNSPs returns the current worst slack (the clock period when the
// design has no endpoints, matching Analyze).
func (inc *Incremental) WNSPs() float64 {
	ep := inc.worstEndpoint()
	if ep < 0 {
		return inc.n.ClockPeriodPs
	}
	return inc.endpoints[ep].SlackPs
}

// worstEndpoint returns the index of the worst endpoint (ties to the
// lowest index, matching Analyze's first-minimum rule), or -1.
func (inc *Incremental) worstEndpoint() int {
	if len(inc.endpoints) == 0 {
		return -1
	}
	for len(inc.slacks) > 0 {
		top := inc.slacks[0]
		if inc.version[top.idx] == top.ver {
			return top.idx
		}
		heap.Pop(&inc.slacks)
	}
	panic("sta: slack index empty with live endpoints")
}

// TNSPs returns the current total negative slack.
func (inc *Incremental) TNSPs() float64 { return inc.tns }

// Violations returns the current violating-endpoint count.
func (inc *Incremental) Violations() int { return inc.violations }

// Endpoints returns the live endpoint table in Analyze order. The slice
// is owned by the engine; callers must not modify it.
func (inc *Incremental) Endpoints() []Endpoint { return inc.endpoints }

// ViolatingEndpoints returns copies of the endpoints with negative
// slack, ascending (worst first).
func (inc *Incremental) ViolatingEndpoints() []Endpoint {
	var eps []Endpoint
	for _, ep := range inc.endpoints {
		if ep.SlackPs < 0 {
			eps = append(eps, ep)
		}
	}
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].SlackPs != eps[j].SlackPs {
			return eps[i].SlackPs < eps[j].SlackPs
		}
		if eps[i].Inst != eps[j].Inst {
			return eps[i].Inst < eps[j].Inst
		}
		return eps[i].Net < eps[j].Net
	})
	return eps
}

// Updates returns the number of change notifications processed.
func (inc *Incremental) Updates() int { return inc.updates }

// Propagated returns the cumulative number of instance recomputations
// (the initial full build counts len(Insts)).
func (inc *Incremental) Propagated() int { return inc.propagated }

// FullEquivalents converts the cumulative propagation work into
// full-Analyze equivalents: 1.0 is the cost of one complete timing run.
func (inc *Incremental) FullEquivalents() float64 {
	if len(inc.n.Insts) == 0 {
		return 0
	}
	return float64(inc.propagated) / float64(len(inc.n.Insts))
}

// Report materializes the current state as a full Analyze-compatible
// report: same WNS/TNS/endpoints, the critical path retraced from the
// stored worst-path links, and CostUnits charged in full-analysis
// equivalents of the work actually performed.
func (inc *Incremental) Report() *Report {
	r := &Report{
		Engine:     inc.cfg.Engine,
		PathBased:  inc.cfg.PathBased,
		SI:         inc.cfg.SI,
		WNSPs:      inc.WNSPs(),
		TNSPs:      inc.tns,
		Violations: inc.violations,
		Endpoints:  append([]Endpoint(nil), inc.endpoints...),
		CostUnits:  inc.unitCost * inc.FullEquivalents(),
	}
	if worst := inc.worstEndpoint(); worst >= 0 {
		r.CriticalPath = retrace(inc.g, inc.endpoints[worst].Net, inc.state, nil)
	}
	worstArrival := inc.n.ClockPeriodPs - r.WNSPs
	if worstArrival > 0 {
		r.MaxFreqGHz = 1000 / worstArrival
	}
	return r
}

// Clone duplicates the engine onto n2, which must be a netlist.Clone of
// the engine's netlist with identical topology and current cell/
// placement values (the annealing fork point). Cloning with an open
// checkpoint is not supported.
func (inc *Incremental) Clone(n2 *netlist.Netlist) *Incremental {
	if inc.cpActive {
		panic("sta: Clone with open Checkpoint")
	}
	c := &Incremental{
		n:          n2,
		g:          inc.g,
		cfg:        inc.cfg,
		Epsilon:    inc.Epsilon,
		derate:     inc.derate,
		setupF:     inc.setupF,
		state:      append([]arrivalState(nil), inc.state...),
		endpoints:  append([]Endpoint(nil), inc.endpoints...),
		epOfInst:   append([]int(nil), inc.epOfInst...),
		epOfNet:    append([]int(nil), inc.epOfNet...),
		tns:        inc.tns,
		violations: inc.violations,
		version:    append([]int(nil), inc.version...),
		buckets:    make([][]int, len(inc.buckets)),
		inBucket:   make([]bool, len(inc.inBucket)),
		minLevel:   len(inc.buckets),
		updates:    inc.updates,
		propagated: inc.propagated,
		unitCost:   inc.unitCost,
		netStamp:   make([]int, len(inc.netStamp)),
		epStamp:    make([]int, len(inc.epStamp)),
	}
	c.cfg.ClockSkew = append([]float64(nil), inc.cfg.ClockSkew...)
	c.cfg.InstDerate = append([]float64(nil), inc.cfg.InstDerate...)
	c.slacks = c.slacks[:0]
	for i, ep := range c.endpoints {
		c.slacks = append(c.slacks, slackEntry{slack: ep.SlackPs, idx: i, ver: c.version[i]})
	}
	heap.Init(&c.slacks)
	return c
}
