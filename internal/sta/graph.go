package sta

import "repro/internal/netlist"

// Graph is the compiled topology of a netlist: what an analysis reads that
// sizing and placement cannot change, flattened into int32 arrays. It holds
// the level order of the stages, the registers, which nets are sources and
// which are endpoints, each net's driver and each instance's fanin nets.
// Cells, their sizes and positions, and every net's load and length are
// read off the netlist on each analysis.
type Graph struct {
	n *netlist.Netlist // compiled from

	// Per net.
	driver []int32 // driving instance, -1 for a primary input
	flags  []netFlags

	// Per instance.
	faninOff []int32 // the fanins of inst i are fanins[faninOff[i]:faninOff[i+1]]
	fanins   []int32 // connected input nets, in pin order
	reg      []bool  // sequential

	stages  []stage // combinational instances with an output net, in netlist.TopoOrder's order
	ffs     []ffEnd // registers with a connected D pin, ascending
	extEnds []int32 // non-clock nets with an external load, ascending
}

// netFlags classify a net for the arrival sweep.
type netFlags uint8

const (
	netInput    netFlags = 1 << iota // a source: a non-clock net without a driver
	netRegister                      // a source: a non-clock register output
	netStaged                        // driven by a stage, which computes its state
	netClock
)

type stage struct{ inst, out int32 }

type ffEnd struct{ ff, d int32 } // a register and the net on its D pin

// Compile returns the topology of n as it stands. It stays n's while only
// cell sizes (within a class) and positions change: an edit that adds or
// rewires pins, re-levels, changes a net's external load or clock flag, or
// swaps a register for a gate needs a new Compile.
func Compile(n *netlist.Netlist) *Graph {
	numInsts, numNets := len(n.Insts), len(n.Nets)
	numPins := 0 // connected or not: the fanin array's capacity
	for _, pins := range n.FaninNet {
		numPins += len(pins)
	}
	g := &Graph{
		n:        n,
		driver:   make([]int32, numNets),
		flags:    make([]netFlags, numNets),
		faninOff: make([]int32, numInsts+1),
		fanins:   make([]int32, 0, numPins),
		reg:      make([]bool, numInsts),
	}

	maxLevel := 0
	for i := range n.Insts {
		g.reg[i] = n.Insts[i].Cell.Class.Sequential()
		for _, f := range n.FaninNet[i] {
			if f >= 0 {
				g.fanins = append(g.fanins, int32(f))
			}
		}
		g.faninOff[i+1] = int32(len(g.fanins))
		maxLevel = max(maxLevel, n.Insts[i].Level)
	}

	// The stages go by level as netlist.TopoOrder's counting sort orders all
	// instances, index order within a level: start[l+1] counts the stages of
	// level l, then is prefix-summed.
	start := make([]int, maxLevel+2)
	numStages, numFFs := 0, 0
	for i := range n.Insts {
		switch l := n.Insts[i].Level; {
		case g.reg[i]:
			if pins := n.FaninNet[i]; len(pins) > 0 && pins[0] >= 0 {
				numFFs++
			}
		case l > 0 && n.FanoutNet[i] >= 0:
			start[l+1]++
			numStages++
		}
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	g.stages, g.ffs = make([]stage, numStages), make([]ffEnd, 0, numFFs)
	for i := range n.Insts {
		switch l := n.Insts[i].Level; {
		case g.reg[i]:
			if pins := n.FaninNet[i]; len(pins) > 0 && pins[0] >= 0 {
				g.ffs = append(g.ffs, ffEnd{int32(i), int32(pins[0])})
			}
		case l > 0 && n.FanoutNet[i] >= 0:
			g.stages[start[l]] = stage{int32(i), int32(n.FanoutNet[i])}
			start[l]++
		}
	}

	for i := range n.Nets {
		net := &n.Nets[i]
		var f netFlags
		switch d := net.Driver; {
		case net.IsClock:
			f = netClock
		case d < 0:
			f = netInput
		case g.reg[d]:
			f = netRegister
		}
		g.driver[i], g.flags[i] = int32(net.Driver), f
		if net.ExternalCap > 0 && !net.IsClock {
			g.extEnds = append(g.extEnds, int32(i))
		}
	}
	for _, s := range g.stages {
		g.flags[s.out] |= netStaged
	}
	return g
}

// Netlist returns the netlist the graph was compiled from.
func (g *Graph) Netlist() *netlist.Netlist { return g.n }

// Driver returns the instance driving the net, or -1.
func (g *Graph) Driver(net int) int { return int(g.driver[net]) }

// IsClock reports whether the net is a clock net.
func (g *Graph) IsClock(net int) bool { return g.flags[net]&netClock != 0 }

// Sequential reports whether the instance is a register.
func (g *Graph) Sequential(inst int) bool { return g.reg[inst] }

// Fanins returns the nets on the instance's connected input pins, in pin
// order. The slice is the graph's own: callers must not modify it.
func (g *Graph) Fanins(inst int) []int32 { return g.fanins[g.faninOff[inst]:g.faninOff[inst+1]] }
