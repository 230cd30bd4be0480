package place

import (
	"math"
	"slices"
)

// The global step: a few rounds of a linearised quadratic wirelength solve
// and a spread onto the slot lattice, run by newPlacer between the scatter
// and the anneal (DESIGN.md "Global start, window and budget").
//
// A round solves, per axis, min Σ_e w_e Σ_{i<j in e} (x_i - x_j)² +
// Σ_i a_i (x_i - s_i)²: the clique model over each net's distinct
// instances with the GORDIAN-L weight w_e = 1/((k-1)·L_e), L_e the net's
// length on that axis at the round's start, plus an anchor pulling each
// instance towards s_i, where the last spread put it, at a_i = α·(the
// instance's net weight), α growing by round. Jacobi-preconditioned
// conjugate gradient runs a few steps from the current positions. The
// clique is never built: row i of the system is diag_i·v_i - Σ_e w_e·(S_e -
// v_i), S_e the sum over net e, and multiply applies it one net at a time
// from p.pins and per-net weights, with no edge list.
//
// The spread then cuts the slot lattice in two across its longer side,
// again and again, and hands each half as many instances as its share of
// the slots, the lowest along that side first (quickselect, ties by
// index): every instance lands in a slot of its own, and the last spread is
// the anneal's legal start.
//
// globalRounds are the rounds' α and CG steps per axis. HPWL after the
// whole placement, soc-proxy after synthesis at 0.5 GHz, mean of seeds
// 1-3, with the flow's budget, relative to the anneal from the scatter: 3
// rounds 0.97x, 4 rounds 0.95x, 5 0.90x, 7 0.84x, each round two solves
// and a spread, ~6 ms on soc-proxy. The first solve starts from the
// scatter and takes most of the steps; later ones start close to their
// answer. α from 0.005 up: anchors that start weak, so the first
// solves are mostly wirelength, and end strong, so the last spread moves
// little.
var globalRounds = [...]struct {
	alpha float32
	steps int
}{{0.005, 10}, {0.01, 3}, {0.03, 3}, {0.08, 3}, {0.2, 3}}

// globalState is the global step's slab, six float32 and one uint64 per
// instance, one float32 and one int32 per net of two or more instances, and
// the placer it works for.
type globalState struct {
	p       *placer
	x, y    []float32 // positions in um, carried across rounds
	r, d, q []float32 // conjugate gradient: residual, direction, A·direction
	diag    []float32 // the system's diagonal, the Jacobi preconditioner
	w       []float32 // w_e on the axis being solved, of each net in nets
	// nets lists the nets of two or more instances by instance count, then
	// index: runs of equal length keep the per-net loops' exits predicted
	// (twice as fast as index order on soc-proxy).
	nets []int32
	// pins is the pin count of nets: what one pass over them visits.
	pins int
	keys []uint64 // the spread's instances, as bisect describes
}

// byDegree is the longest net length nets orders on; longer ones follow
// all of them, in index order.
const byDegree = 16

// globalPlace runs the global step from the grid's current placement and
// leaves its last spread in the grid, with every net record rescanned. Each
// pass over the nets is charged to RuntimeProxy at half a unit per pin, so
// that the proxy stays a stand-in for time: a unit of the anneal (one net
// of an evaluated move, visited twice) costs ~0.020 us on soc-proxy, and
// the global step's 64 passes over its 40 k pins take ~31 ms, ~0.012 us a
// pin.
func (p *placer) globalPlace() {
	if p.n.NumCells() == 0 {
		return
	}
	var gs globalState
	gs.init(p)
	g := p.g
	pitchX, pitchY := float32(p.w/float64(g.cols)), float32(p.h/float64(len(g.rowY)))
	for _, round := range globalRounds {
		gs.solveAxis(gs.x, 0, g.colX, pitchX, round.alpha, round.steps)
		gs.solveAxis(gs.y, 16, g.rowY, pitchY, round.alpha, round.steps)
		gs.spread()
	}
	for nid := range p.net {
		p.rescan(int32(nid))
	}
}

// init carves the slab and starts every instance where the grid has it.
func (gs *globalState) init(p *placer) {
	// Bucket the nets of two or more instances by instance count: start[k]
	// is where length k goes.
	var start [byDegree + 1]int
	for nid := range p.net {
		start[min(len(p.pins.Of(nid)), byDegree)]++
	}
	numNets := 0
	for k := 2; k <= byDegree; k++ {
		start[k], numNets = numNets, numNets+start[k]
	}
	cells := p.n.NumCells()
	slab := make([]float32, 6*cells+numNets)
	cut := func(k int) []float32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	*gs = globalState{p: p,
		x: cut(cells), y: cut(cells), r: cut(cells), d: cut(cells), q: cut(cells), diag: cut(cells),
		w: cut(numNets), nets: make([]int32, numNets), keys: make([]uint64, cells),
	}
	for nid := range p.net {
		if k := len(p.pins.Of(nid)); k >= 2 {
			gs.nets[start[min(k, byDegree)]] = int32(nid)
			start[min(k, byDegree)]++
			gs.pins += k
		}
	}
	for inst, slot := range p.g.slotOf {
		x, y := p.g.coords(slot)
		gs.x[inst], gs.y[inst], gs.keys[inst] = float32(x), float32(y), uint64(inst)
	}
}

// solveAxis runs steps of Jacobi-preconditioned conjugate gradient on one
// axis from the positions in v. An instance's anchor is coord[its lane at
// shift in its slot word], and minLen is the shortest length a net is
// linearised at. Every product that meets a sum is rounded explicitly
// (float32(...), float64(...)), so no platform fuses a multiply-add and the
// bits are the same everywhere.
func (gs *globalState) solveAxis(v []float32, shift uint, coord []float64, minLen, alpha float32, steps int) {
	p, r, d, q, diag, w := gs.p, gs.r, gs.d, gs.q, gs.diag, gs.w
	off, pins := p.pins.Off, p.pins.Inst
	// Net weights, and the Laplacian's diagonal Σ_e w_e·(k_e - 1).
	clear(diag)
	for j, nid := range gs.nets {
		insts := pins[off[nid]:off[nid+1]]
		lo, hi := v[insts[0]], v[insts[0]]
		for _, inst := range insts[1:] {
			lo, hi = min(lo, v[inst]), max(hi, v[inst])
		}
		k := float32(len(insts) - 1)
		wn := 1 / float32(k*max(hi-lo, minLen))
		w[j] = wn
		for _, inst := range insts {
			diag[inst] += float32(wn * k)
		}
	}
	p.res.RuntimeProxy += gs.pins / 2
	// Anchors a_i = α·diag_i (1 on an instance on no net, which then stays
	// where it was spread), and r = b - A·v with b_i = a_i·s_i.
	for inst, at := range p.g.pos {
		a := float32(alpha * diag[inst])
		if a == 0 {
			a = 1
		}
		diag[inst] += a
		r[inst] = float32(a * float32(coord[at>>shift&0xffff]))
	}
	gs.multiply(v, q)
	var rz float64
	for i := range r {
		r[i] -= q[i]
		d[i] = r[i] / diag[i]
		rz += float64(float64(r[i]) * float64(d[i]))
	}
	for range steps {
		dq := gs.multiply(d, q)
		if !(dq > 0) || rz == 0 {
			return // converged to the last bit
		}
		step := float32(rz / dq)
		var next float64
		for i := range v {
			v[i] += float32(step * d[i])
			r[i] -= float32(step * q[i])
			q[i] = r[i] / diag[i] // the preconditioned residual
			next += float64(float64(r[i]) * float64(q[i]))
		}
		beta := float32(next / rz)
		for i := range d {
			d[i] = q[i] + float32(beta*d[i])
		}
		rz = next
	}
}

// multiply sets out = A·v and returns v·out: diag·v less, per net, w_e
// times the net's sum over its other instances. The nets go in gs.nets'
// fixed order, so the float32 sums land alike every run.
func (gs *globalState) multiply(v, out []float32) (dot float64) {
	w, off, pins := gs.w, gs.p.pins.Off, gs.p.pins.Inst
	out = out[:len(v)]
	for i, vi := range v {
		out[i] = float32(gs.diag[i] * vi)
	}
	for j, nid := range gs.nets {
		wn, insts := w[j], pins[off[nid]:off[nid+1]]
		var sum float64
		for _, inst := range insts {
			sum += float64(v[inst])
		}
		for _, inst := range insts {
			out[inst] -= float32(wn * float32(sum-float64(v[inst])))
		}
	}
	for i, vi := range v {
		dot += float64(float64(vi) * float64(out[i]))
	}
	gs.p.res.RuntimeProxy += gs.pins / 2
	return dot
}

// spread puts every instance in a slot of its own by recursive bisection
// of the lattice and writes the assignment to the grid.
func (gs *globalState) spread() {
	g := gs.p.g
	for s := range g.instAt {
		g.instAt[s] = -1
	}
	gs.bisect(rect{0, 0, g.cols - 1, len(g.rowY) - 1}, gs.keys, 0)
}

// bisect assigns the instances of keys, no more than the slots of in, to
// slots of in: the longer side in um is halved, and each half takes its
// share of the instances, rounded, lowest on that axis first. A key is an
// instance in its low 32 bits under its coordinate on axis loaded ('x',
// 'y', or 0 before the first split), as an ordered uint32, in its high 32:
// ordering keys orders by coordinate, ties by instance.
func (gs *globalState) bisect(in rect, keys []uint64, loaded byte) {
	p, g := gs.p, gs.p.g
	cellW, rowH := p.w/float64(g.cols), p.h/float64(len(g.rowY))
	for len(keys) > 0 {
		cols, rows := in.c1-in.c0+1, in.r1-in.r0+1
		if cols*rows == 1 {
			slot, inst := in.r0*g.cols+in.c0, int(uint32(keys[0]))
			g.slotOf[inst], g.instAt[slot], g.pos[inst] = slot, inst, g.word(slot)
			return
		}
		lo, hi, axis := in, in, byte('y')
		if rows == 1 || cols > 1 && float64(cols)*cellW >= float64(rows)*rowH {
			lo.c1, hi.c0, axis = in.c0+cols/2-1, in.c0+cols/2, 'x'
		} else {
			lo.r1, hi.r0 = in.r0+rows/2-1, in.r0+rows/2
		}
		if axis != loaded {
			coord := gs.x
			if axis == 'y' {
				coord = gs.y
			}
			for i, key := range keys {
				inst := uint32(key)
				keys[i] = uint64(ordered(coord[inst]))<<32 | uint64(inst)
			}
			loaded = axis
		}
		total, capLo := cols*rows, (lo.c1-lo.c0+1)*(lo.r1-lo.r0+1)
		k := min(max((len(keys)*capLo+total/2)/total, len(keys)-(total-capLo)), capLo)
		selectLowest(keys, k)
		gs.bisect(lo, keys[:k], loaded)
		in, keys = hi, keys[k:]
	}
}

// ordered maps a float32 to a uint32 of the same order (-0 below +0).
func ordered(f float32) uint32 {
	b := math.Float32bits(f)
	if b>>31 != 0 {
		return ^b
	}
	return b | 1<<31
}

// selectLowest reorders a so that its first k entries are its k lowest.
// From the second round on a is still arranged as the last spread left
// it, so most entries are on the right side of k already: two partitions
// at the lowest entry above k and the highest below it fence in the few
// that are not, and quickselect runs on those alone.
func selectLowest(a []uint64, k int) {
	if k <= 0 || k >= len(a) {
		return
	}
	maxLo, minHi := slices.Max(a[:k]), slices.Min(a[k:])
	if maxLo < minHi {
		return
	}
	lo := partition(a, minHi)
	hi := lo + partition(a[lo:], maxLo+1) // keys are below 1<<63 + 1<<32
	a, k = a[lo:hi], k-lo
	for lo, hi := 0, len(a)-1; lo < k && k <= hi; {
		m := lo + partition(a[lo:hi+1], a[medianOf3(a, lo, lo+(hi-lo)/2, hi)])
		if m == lo {
			m++ // the pivot was the lowest: it alone goes below
			for i := lo + 1; i <= hi; i++ {
				if a[i] < a[lo] {
					a[i], a[lo] = a[lo], a[i]
				}
			}
		}
		if k < m {
			hi = m - 1
		} else {
			lo = m
		}
	}
}

// partition moves the entries of a below p before the others and returns
// how many there are. Blocks of entries are classified without a branch
// (BlockQuicksort): the offsets of the misplaced ones on either side are
// collected first, then swapped in pairs; the last few blocks go through
// a Lomuto scan, also without a branch.
func partition(a []uint64, p uint64) int {
	const block = 64
	var offL, offR [block]uint8
	l, r := 0, len(a) // a[:l] < p <= a[r:]
	nl, nr, sl, sr := 0, 0, 0, 0
	for r-l > 2*block {
		if nl == 0 {
			sl = 0
			for i, v := range a[l : l+block] {
				offL[nl] = uint8(i)
				if v >= p {
					nl++
				}
			}
		}
		if nr == 0 {
			sr = 0
			for i := range block {
				offR[nr] = uint8(i)
				if a[r-1-i] < p {
					nr++
				}
			}
		}
		n := min(nl, nr)
		for k := range n {
			i, j := l+int(offL[sl+k]), r-1-int(offR[sr+k])
			a[i], a[j] = a[j], a[i]
		}
		nl, nr, sl, sr = nl-n, nr-n, sl+n, sr+n
		if nl == 0 {
			l += block
		}
		if nr == 0 {
			r -= block
		}
	}
	// Lomuto without a branch: a[l:store] < p <= a[store:i].
	store := l
	for i, v := range a[l:r] {
		a[l+i] = a[store]
		a[store] = v
		below := 0
		if v < p {
			below = 1
		}
		store += below
	}
	return store
}

// medianOf3 is the index of the median of a[i], a[j], a[k].
func medianOf3(a []uint64, i, j, k int) int {
	if a[i] > a[j] {
		i, j = j, i
	}
	if a[j] > a[k] {
		j = k
		if a[i] > a[j] {
			j = i
		}
	}
	return j
}
