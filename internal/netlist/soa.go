// Flat (structure-of-arrays) views of the netlist connectivity, built
// once and scanned by the hot loops of the physical-design kernels.
// The annealing placer evaluates millions of move deltas per run; the
// nested-slice incidence it used to build per call ([][]int plus a
// per-instance dedupe map) cost an allocation per instance and a
// pointer chase per access. These CSR-style index+offset pairs are the
// same data flattened into two arrays each.
package netlist

// Incidence is a CSR-style instance -> nets index: the (deduplicated)
// non-clock nets touching each instance, in ascending net order.
type Incidence struct {
	Off  []int32 // len NumCells+1; nets of inst i are Nets[Off[i]:Off[i+1]]
	Nets []int32
}

// Of returns the nets incident to inst.
func (inc Incidence) Of(inst int) []int32 {
	return inc.Nets[inc.Off[inst]:inc.Off[inst+1]]
}

// BuildIncidence constructs the instance -> nets CSR index. Clock nets
// are excluded (the placer's cost function ignores them). Deduplication
// uses a stamp array, so the build allocates exactly three slices no
// matter how many instances the design has.
func (n *Netlist) BuildIncidence() Incidence {
	stamp := make([]int32, n.NumCells())
	for i := range stamp {
		stamp[i] = -1
	}
	counts := make([]int32, n.NumCells()+1)
	visit := func(netID int, inst int, f func(inst int)) {
		if stamp[inst] != int32(netID) {
			stamp[inst] = int32(netID)
			f(inst)
		}
	}
	forEachPin := func(netID int, f func(inst int)) {
		net := &n.Nets[netID]
		if net.IsClock {
			return
		}
		if net.Driver >= 0 {
			visit(netID, net.Driver, f)
		}
		for _, s := range net.Sinks {
			visit(netID, s.Inst, f)
		}
	}
	for i := range n.Nets {
		forEachPin(i, func(inst int) { counts[inst+1]++ })
	}
	inc := Incidence{Off: counts}
	for i := 1; i < len(inc.Off); i++ {
		inc.Off[i] += inc.Off[i-1]
	}
	inc.Nets = make([]int32, inc.Off[n.NumCells()])
	next := make([]int32, n.NumCells())
	copy(next, inc.Off[:n.NumCells()])
	for i := range stamp {
		stamp[i] = -1
	}
	for i := range n.Nets {
		forEachPin(i, func(inst int) {
			inc.Nets[next[inst]] = int32(i)
			next[inst]++
		})
	}
	return inc
}

// NetPins is a CSR-style net -> pin-instances index: for each net, the
// driver (when present) followed by the sink instances, duplicates
// preserved, in the same order Netlist.HPWL visits them.
type NetPins struct {
	Off  []int32 // len NumNets+1; pins of net i are Inst[Off[i]:Off[i+1]]
	Inst []int32
}

// Of returns the pin instances of net id.
func (np NetPins) Of(netID int) []int32 {
	return np.Inst[np.Off[netID]:np.Off[netID+1]]
}
