// Package netlist provides the gate-level design model shared by every
// step of the simulated implementation flow, plus a synthetic design
// generator with Rent's-rule-style locality.
//
// Real testcases (the paper uses PULPino in foundry 14nm) are not
// available, so designs are generated: a levelized combinational DAG
// between flip-flop boundaries, with fanin selection biased toward nearby
// logic. The generator's locality knob stands in for the Rent exponent of
// a real netlist; it controls placement difficulty and routing congestion,
// which is what the paper's experiments actually exercise.
package netlist

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cellib"
	"repro/internal/num"
)

// PinRef identifies an input pin of an instance.
type PinRef struct {
	Inst int // instance ID
	Pin  int // input pin index, 0-based
}

// Instance is one placed cell.
type Instance struct {
	ID    int
	Name  string
	Cell  cellib.Cell
	Level int     // logic level (0 = register/PI boundary)
	X, Y  float64 // placement location in um (set by the placer)
}

// Net connects one driver to zero or more sink pins.
type Net struct {
	ID      int
	Name    string
	Driver  int // driving instance ID, or -1 for a primary input
	Sinks   []PinRef
	IsClock bool
	// ExternalCap models a primary-output or boundary load in fF.
	ExternalCap float64
}

// Netlist is a complete gate-level design: a header (the name, the
// library, the clock net and period and the four slice headers) over its
// instance, net and pin storage. Two netlists may share storage under
// headers of their own: the flow's runs of one design that differ only in
// their clock period each return their own header over one run's storage
// (see flow.Prefixes). A finished run's netlist storage is never written:
// the flow writes only the netlist its run is building, and a caller that
// edits a result (an ECO) edits a Clone, so a header that shares storage
// reads what its run computed.
type Netlist struct {
	Name string
	Lib  *cellib.Library

	Insts []Instance
	Nets  []Net

	// FaninNet[inst][pin] is the net ID feeding each input pin; -1 if
	// unconnected. FanoutNet[inst] is the net ID driven by the instance
	// output, or -1.
	FaninNet  [][]int
	FanoutNet []int

	ClockNet      int // net ID of the clock, or -1
	ClockPeriodPs float64
}

// NumCells returns the number of instances.
func (n *Netlist) NumCells() int { return len(n.Insts) }

// Area returns the total placed cell area in um^2.
func (n *Netlist) Area() float64 {
	var a float64
	for i := range n.Insts {
		a += n.Insts[i].Cell.Area
	}
	return a
}

// Leakage returns the total leakage power in nW.
func (n *Netlist) Leakage() float64 {
	var p float64
	for i := range n.Insts {
		p += n.Insts[i].Cell.Leakage
	}
	return p
}

// Sequential returns the IDs of all sequential (flip-flop) instances.
func (n *Netlist) Sequential() []int {
	var ids []int
	for i := range n.Insts {
		if n.Insts[i].Cell.Class.Sequential() {
			ids = append(ids, i)
		}
	}
	return ids
}

// NetLoad returns the total capacitive load on a net in fF: sink pin caps
// plus external cap plus wire cap for the current placement (HPWL-based
// wire length estimate). It is Electricals' first result.
func (n *Netlist) NetLoad(netID int) float64 {
	load, _ := n.Electricals(netID)
	return load
}

// Electricals returns a net's NetLoad in fF and its HPWL in um from one
// walk of its pins: caps summed and box grown in HPWL's order, so the
// length is HPWL's bit for bit.
func (n *Netlist) Electricals(netID int) (loadFF, lengthUm float64) {
	net := &n.Nets[netID]
	loadFF = net.ExternalCap
	first := net.Driver
	if first < 0 && len(net.Sinks) > 0 {
		// HPWL starts a driverless net's box at its first sink; that
		// sink's turn in the loop below leaves the box as it is.
		first = net.Sinks[0].Inst
	}
	if first >= 0 {
		in := &n.Insts[first]
		minX, maxX, minY, maxY := in.X, in.X, in.Y, in.Y
		for _, s := range net.Sinks {
			in := &n.Insts[s.Inst]
			loadFF += in.Cell.InputCap
			minX, maxX = min(minX, in.X), max(maxX, in.X)
			minY, maxY = min(minY, in.Y), max(maxY, in.Y)
		}
		lengthUm = (maxX - minX) + (maxY - minY)
	}
	loadFF += n.Lib.Wire.CapPerUm * lengthUm
	return loadFF, lengthUm
}

// HPWL returns the half-perimeter wirelength of a net in um for the
// current placement. Nets with fewer than two endpoints have length 0.
func (n *Netlist) HPWL(netID int) float64 {
	net := &n.Nets[netID]
	sinks := net.Sinks
	var first *Instance
	switch {
	case net.Driver >= 0:
		first = &n.Insts[net.Driver]
	case len(sinks) > 0:
		first, sinks = &n.Insts[sinks[0].Inst], sinks[1:]
	default:
		return 0
	}
	// Builtin min/max on float64 have math.Min/Max's NaN and ±0
	// semantics but compile inline and branch-free.
	minX, maxX, minY, maxY := first.X, first.X, first.Y, first.Y
	for _, s := range sinks {
		in := &n.Insts[s.Inst]
		minX, maxX = min(minX, in.X), max(maxX, in.X)
		minY, maxY = min(minY, in.Y), max(maxY, in.Y)
	}
	return (maxX - minX) + (maxY - minY)
}

// TotalHPWL returns the sum of HPWL over all non-clock nets in um.
func (n *Netlist) TotalHPWL() float64 {
	var t float64
	for i := range n.Nets {
		if n.Nets[i].IsClock {
			continue
		}
		t += n.HPWL(i)
	}
	return t
}

// TopoOrder returns instance IDs in ascending logic-level order, which is
// a valid topological order of the combinational graph (level-0 holds
// registers and level assignment follows fanin levels).
func (n *Netlist) TopoOrder() []int {
	// Counting sort by level: O(V), two allocations, and instances of one
	// level stay in index order.
	maxLevel := 0
	for i := range n.Insts {
		maxLevel = max(maxLevel, n.Insts[i].Level)
	}
	start := make([]int, maxLevel+2) // start[l+1] counts level l, then prefix-summed
	for i := range n.Insts {
		start[n.Insts[i].Level+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	order := make([]int, len(n.Insts))
	for i := range n.Insts {
		l := n.Insts[i].Level
		order[start[l]] = i
		start[l]++
	}
	return order
}

// Stats summarizes structural attributes of a design. These are the
// "structural attributes of design instances that determine flow outcomes"
// the paper lists as ML application (i) in Sec. 3.3; they are consumed as
// model features by internal/correlate and internal/metrics.
type Stats struct {
	Cells      int
	Registers  int
	Nets       int
	Pins       int
	MaxLevel   int
	AvgFanout  float64
	MaxFanout  int
	TotalArea  float64
	AvgNetSpan float64 // average normalized within-level positional distance (locality proxy)
}

// ComputeStats derives structural statistics from the netlist.
func (n *Netlist) ComputeStats() Stats {
	s := Stats{Cells: len(n.Insts), Nets: len(n.Nets), TotalArea: n.Area()}
	var fanoutSum int
	var spanSum float64
	var spanCnt int
	for i := range n.Insts {
		if n.Insts[i].Cell.Class.Sequential() {
			s.Registers++
		}
		if n.Insts[i].Level > s.MaxLevel {
			s.MaxLevel = n.Insts[i].Level
		}
	}
	// Normalized position of each instance within its logic level, so the
	// span metric is insensitive to the ID stride between levels.
	levelCount := make(map[int]int)
	for i := range n.Insts {
		levelCount[n.Insts[i].Level]++
	}
	levelSeen := make(map[int]int)
	pos := make([]float64, len(n.Insts))
	for _, id := range n.TopoOrder() {
		l := n.Insts[id].Level
		pos[id] = (float64(levelSeen[l]) + 0.5) / float64(levelCount[l])
		levelSeen[l]++
	}
	for i := range n.Nets {
		net := &n.Nets[i]
		s.Pins += len(net.Sinks)
		if net.Driver >= 0 {
			s.Pins++
			fanoutSum += len(net.Sinks)
			if len(net.Sinks) > s.MaxFanout {
				s.MaxFanout = len(net.Sinks)
			}
			for _, snk := range net.Sinks {
				d := pos[net.Driver] - pos[snk.Inst]
				if d < 0 {
					d = -d
				}
				spanSum += d
				spanCnt++
			}
		}
	}
	drivers := 0
	for i := range n.Nets {
		if n.Nets[i].Driver >= 0 {
			drivers++
		}
	}
	if drivers > 0 {
		s.AvgFanout = float64(fanoutSum) / float64(drivers)
	}
	if spanCnt > 0 {
		s.AvgNetSpan = spanSum / float64(spanCnt)
	}
	return s
}

// Validate checks structural invariants: consistent fanin/fanout tables,
// in-range references, acyclicity by levels. It returns the first problem
// found, or nil.
func (n *Netlist) Validate() error {
	if len(n.FaninNet) != len(n.Insts) || len(n.FanoutNet) != len(n.Insts) {
		return fmt.Errorf("netlist: fanin/fanout tables sized %d/%d for %d insts",
			len(n.FaninNet), len(n.FanoutNet), len(n.Insts))
	}
	for i := range n.Insts {
		if n.Insts[i].ID != i {
			return fmt.Errorf("netlist: inst %d has ID %d", i, n.Insts[i].ID)
		}
		want := n.Insts[i].Cell.Class.NumInputs()
		if len(n.FaninNet[i]) != want {
			return fmt.Errorf("netlist: inst %d (%s) has %d fanin slots, want %d",
				i, n.Insts[i].Cell.Name, len(n.FaninNet[i]), want)
		}
		for pin, netID := range n.FaninNet[i] {
			if netID < 0 {
				continue
			}
			if netID >= len(n.Nets) {
				return fmt.Errorf("netlist: inst %d pin %d references net %d of %d", i, pin, netID, len(n.Nets))
			}
			found := false
			for _, s := range n.Nets[netID].Sinks {
				if s.Inst == i && s.Pin == pin {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("netlist: inst %d pin %d not a sink of its fanin net %d", i, pin, netID)
			}
		}
	}
	for i := range n.Nets {
		net := &n.Nets[i]
		if net.ID != i {
			return fmt.Errorf("netlist: net %d has ID %d", i, net.ID)
		}
		if net.Driver >= len(n.Insts) {
			return fmt.Errorf("netlist: net %d driver %d out of range", i, net.Driver)
		}
		if net.Driver >= 0 && n.FanoutNet[net.Driver] != i {
			return fmt.Errorf("netlist: net %d driver %d fanout table says %d", i, net.Driver, n.FanoutNet[net.Driver])
		}
		for _, s := range net.Sinks {
			if s.Inst < 0 || s.Inst >= len(n.Insts) {
				return fmt.Errorf("netlist: net %d sink inst %d out of range", i, s.Inst)
			}
			if s.Pin < 0 || s.Pin >= len(n.FaninNet[s.Inst]) {
				return fmt.Errorf("netlist: net %d sink pin %d out of range for inst %d", i, s.Pin, s.Inst)
			}
			if n.FaninNet[s.Inst][s.Pin] != i {
				return fmt.Errorf("netlist: net %d sink (%d,%d) fanin table says %d", i, s.Inst, s.Pin, n.FaninNet[s.Inst][s.Pin])
			}
		}
		// Acyclicity: a combinational sink must be at a strictly higher
		// level than a combinational driver.
		if net.Driver >= 0 && !net.IsClock && !n.Insts[net.Driver].Cell.Class.Sequential() {
			dl := n.Insts[net.Driver].Level
			for _, s := range net.Sinks {
				if n.Insts[s.Inst].Cell.Class.Sequential() {
					continue
				}
				if n.Insts[s.Inst].Level <= dl {
					return fmt.Errorf("netlist: net %d combinational edge %d(level %d) -> %d(level %d) not level-increasing",
						i, net.Driver, dl, s.Inst, n.Insts[s.Inst].Level)
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the netlist (cells may be resized without
// affecting the original).
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{
		Name:          n.Name,
		Lib:           n.Lib,
		Insts:         append([]Instance(nil), n.Insts...),
		Nets:          append([]Net(nil), n.Nets...),
		FaninNet:      append([][]int(nil), n.FaninNet...), // each list replaced below
		FanoutNet:     append([]int(nil), n.FanoutNet...),
		ClockNet:      n.ClockNet,
		ClockPeriodPs: n.ClockPeriodPs,
	}
	// The per-net and per-instance lists are carved out of one slab each,
	// not allocated one by one. Every piece is capacity-clipped, so a later
	// append (Connect, InsertBuffer) reallocates that list instead of
	// running into its neighbour; an empty list stays nil. The per-instance
	// arrays are all appended, never made: the allocation's round-up is then
	// capacity, and appending a few instances (synthesis's buffers) regrows
	// none of them.
	var numSinks, numFanins int
	for i := range n.Nets {
		numSinks += len(n.Nets[i].Sinks)
	}
	for i := range n.FaninNet {
		numFanins += len(n.FaninNet[i])
	}
	sinks := make([]PinRef, 0, numSinks)
	for i := range c.Nets {
		c.Nets[i].Sinks = carve(&sinks, n.Nets[i].Sinks)
	}
	fanins := make([]int, 0, numFanins)
	for i := range n.FaninNet {
		c.FaninNet[i] = carve(&fanins, n.FaninNet[i])
	}
	return c
}

// carve appends src to the slab (which must have room: it never grows)
// and returns the copy with its capacity clipped to its length, or nil
// for an empty src.
func carve[T any](slab *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	a := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[a:len(*slab):len(*slab)]
}

// Spec parameterizes the synthetic design generator.
type Spec struct {
	Name          string
	Seed          int64
	NumComb       int     // approximate number of combinational cells
	NumFFs        int     // number of flip-flops
	Levels        int     // combinational logic depth
	Locality      float64 // 0..1; higher = more local fanin (lower Rent exponent)
	NumPIs        int     // primary inputs
	ClockPeriodPs float64 // initial timing target
}

// PulpinoProxy returns the spec of the PULPino-like proxy design used for
// the paper's Fig. 3 and Fig. 7 experiments (scaled for laptop runtime).
func PulpinoProxy(seed int64) Spec {
	return Spec{
		Name: "pulpino-proxy", Seed: seed,
		NumComb: 1100, NumFFs: 150, Levels: 14,
		Locality: 0.72, NumPIs: 32, ClockPeriodPs: 1400,
	}
}

// EmbeddedCPU returns the spec of the larger embedded-CPU proxy used as
// the *testing* corpus source for the doomed-run experiments (the paper's
// 3742 logfiles come from floorplans of an embedded CPU).
func EmbeddedCPU(seed int64) Spec {
	return Spec{
		Name: "embedded-cpu", Seed: seed,
		NumComb: 2200, NumFFs: 320, Levels: 18,
		Locality: 0.6, NumPIs: 48, ClockPeriodPs: 1600,
	}
}

// Artificial returns the spec of a small artificial layout, the *training*
// corpus source for the doomed-run experiments (the paper trains on 1200
// logfiles from artificial layouts). Low locality makes these
// congestion-stressed, giving a wide mix of doomed and successful runs.
func Artificial(seed int64) Spec {
	return Spec{
		Name: "artificial", Seed: seed,
		NumComb: 700, NumFFs: 90, Levels: 10,
		Locality: 0.35, NumPIs: 24, ClockPeriodPs: 1300,
	}
}

// Tiny returns a minimal spec for fast unit tests.
func Tiny(seed int64) Spec {
	return Spec{
		Name: "tiny", Seed: seed,
		NumComb: 60, NumFFs: 10, Levels: 5,
		Locality: 0.6, NumPIs: 6, ClockPeriodPs: 1200,
	}
}

// Generate builds a synthetic design from a spec. The result is a
// levelized DAG: level 0 holds flip-flops, levels 1..Levels hold
// combinational cells whose fanins come from strictly lower levels with a
// locality-biased choice, and the last level feeds flip-flop D inputs.
// All cells start at minimum drive; synthesis/sizing strengthen them.
func Generate(lib *cellib.Library, spec Spec) *Netlist {
	rng := rand.New(num.NewRand(spec.Seed))
	n := &Netlist{
		Name:          spec.Name,
		Lib:           lib,
		ClockNet:      -1,
		ClockPeriodPs: spec.ClockPeriodPs,
	}

	combClasses := []cellib.Class{
		cellib.Inverter, cellib.Nand2, cellib.Nor2, cellib.Nand3,
		cellib.Aoi21, cellib.Oai21, cellib.Xor2, cellib.Mux2,
	}

	addInst := func(class cellib.Class, level int) int {
		id := len(n.Insts)
		cell := lib.Smallest(class)
		n.Insts = append(n.Insts, Instance{
			ID:    id,
			Name:  fmt.Sprintf("u%d", id),
			Cell:  cell,
			Level: level,
		})
		n.FaninNet = append(n.FaninNet, make([]int, cell.Class.NumInputs()))
		for p := range n.FaninNet[id] {
			n.FaninNet[id][p] = -1
		}
		n.FanoutNet = append(n.FanoutNet, -1)
		return id
	}
	addNet := func(driver int, name string) int {
		id := len(n.Nets)
		n.Nets = append(n.Nets, Net{ID: id, Name: name, Driver: driver})
		if driver >= 0 {
			n.FanoutNet[driver] = id
		}
		return id
	}
	connect := func(netID, inst, pin int) {
		n.Nets[netID].Sinks = append(n.Nets[netID].Sinks, PinRef{Inst: inst, Pin: pin})
		n.FaninNet[inst][pin] = netID
	}

	// Flip-flops at level 0; their Q nets are the sources for level-1 logic.
	ffs := make([]int, spec.NumFFs)
	for i := range ffs {
		ffs[i] = addInst(cellib.DFF, 0)
	}
	// Primary-input nets (driver -1).
	levelNets := make([][]int, spec.Levels+1)
	for i := 0; i < spec.NumPIs; i++ {
		levelNets[0] = append(levelNets[0], addNet(-1, fmt.Sprintf("pi%d", i)))
	}
	for _, ff := range ffs {
		levelNets[0] = append(levelNets[0], addNet(ff, fmt.Sprintf("q%d", ff)))
	}

	// pickSource selects a fanin net for a cell at (level, position),
	// preferring recent levels and nearby positions; the locality knob
	// stretches or shrinks the positional window (Rent's-rule proxy).
	pickSource := func(level int, pos, width int) int {
		// Geometric level bias: mostly previous level.
		srcLevel := level - 1
		for srcLevel > 0 && rng.Float64() > 0.7 {
			srcLevel--
		}
		nets := levelNets[srcLevel]
		if len(nets) == 0 {
			nets = levelNets[0]
		}
		// Positional window around the proportional position.
		center := float64(pos) / float64(max(1, width)) * float64(len(nets))
		window := float64(len(nets)) * (1.05 - spec.Locality)
		lo := int(center - window)
		hi := int(center + window)
		if lo < 0 {
			lo = 0
		}
		if hi >= len(nets) {
			hi = len(nets) - 1
		}
		if hi < lo {
			lo, hi = 0, len(nets)-1
		}
		return nets[lo+rng.Intn(hi-lo+1)]
	}

	perLevel := spec.NumComb / spec.Levels
	if perLevel < 1 {
		perLevel = 1
	}
	for level := 1; level <= spec.Levels; level++ {
		width := perLevel
		for w := 0; w < width; w++ {
			class := combClasses[rng.Intn(len(combClasses))]
			id := addInst(class, level)
			for pin := 0; pin < class.NumInputs(); pin++ {
				connect(pickSource(level, w, width), id, pin)
			}
			levelNets[level] = append(levelNets[level], addNet(id, fmt.Sprintf("n%d", id)))
		}
	}

	// Close the loop: flip-flop D inputs sample from the last levels.
	last := levelNets[spec.Levels]
	for i, ff := range ffs {
		src := last[i%len(last)]
		if rng.Float64() < 0.3 {
			src = pickSource(spec.Levels, i, len(ffs))
		}
		connect(src, ff, 0)
	}
	// Primary outputs: give the deepest nets an external load.
	for i := 0; i < len(last); i += 4 {
		n.Nets[last[i]].ExternalCap = 2.0 + 2.0*rng.Float64()
	}

	// Clock net over all flip-flops. DFF pin 0 is D; the clock pin is
	// modelled implicitly (CTS consumes the sink list, not a pin index).
	clk := addNet(-1, "clk")
	n.Nets[clk].IsClock = true
	n.ClockNet = clk

	// Initial placement: cells in level-major order on a square grid, so
	// pre-placement analyses have sane wire estimates.
	SpreadInitial(n)
	return n
}

// SpreadInitial assigns a deterministic initial placement: instances in
// level-major order, row by row, on a die sized for ~60% utilization.
func SpreadInitial(n *Netlist) {
	w, h := DieSize(n, 0.6)
	order := n.TopoOrder()
	cols := int(math.Ceil(math.Sqrt(float64(len(order)))))
	if cols < 1 {
		cols = 1
	}
	for i, id := range order {
		r, c := i/cols, i%cols
		n.Insts[id].X = (float64(c) + 0.5) / float64(cols) * w
		n.Insts[id].Y = (float64(r) + 0.5) / float64(cols) * h
	}
}

// DieSize returns a square die (width, height in um) sized so the design
// occupies the given utilization fraction.
func DieSize(n *Netlist, utilization float64) (w, h float64) {
	if utilization <= 0 {
		utilization = 0.6
	}
	side := math.Sqrt(n.Area() / utilization)
	if side < 1 {
		side = 1
	}
	return side, side
}
