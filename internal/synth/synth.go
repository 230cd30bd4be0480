// Package synth models logic synthesis: high-fanout buffering plus
// timing-driven gate sizing toward a target frequency.
//
// The synthesizer is deliberately heuristic and seeded: near the maximum
// achievable frequency its discrete decisions (which critical cell to
// upsize first, where to buffer) depend on random tie-breaks, so repeated
// runs of the same input scatter in area and timing. This is the
// mechanistic source of the Gaussian SP&R implementation noise the paper
// shows in Fig. 3 (refs [15][29]): the harder the tool is pushed, the
// noisier the outcome.
package synth

import (
	"math/rand"
	"slices"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// Options are the synthesis knobs. They are one level of the flow-option
// tree of the paper's Fig. 5(a).
type Options struct {
	TargetFreqGHz float64
	Effort        int     // 1..3: sizing passes per STA iteration budget
	Seed          int64   // run seed; drives heuristic tie-breaks
	MaxFanout     int     // buffer nets with more sinks than this (default 8)
	UpsizeFrac    float64 // fraction of critical endpoints attacked per pass (default 0.35)
}

func (o Options) withDefaults() Options {
	if o.Effort <= 0 {
		o.Effort = 2
	}
	if o.MaxFanout <= 0 {
		o.MaxFanout = 8
	}
	if o.UpsizeFrac <= 0 {
		o.UpsizeFrac = 0.35
	}
	if o.TargetFreqGHz <= 0 {
		o.TargetFreqGHz = 0.5
	}
	return o
}

// Result reports the synthesis outcome.
type Result struct {
	Netlist *netlist.Netlist

	AreaUm2      float64
	WNSPs        float64
	TNSPs        float64
	Met          bool // timing met at target
	Passes       int
	Upsized      int
	BuffersAdded int
	LeakageNW    float64
}

// Run synthesizes the design toward the target frequency. The input
// netlist is not modified; all cells of the result start from the input
// sizes and are strengthened as needed.
func Run(design *netlist.Netlist, opts Options) Result {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	n := design.Clone()
	n.ClockPeriodPs = 1000 / opts.TargetFreqGHz

	res := Result{Netlist: n}
	res.BuffersAdded = bufferHighFanout(n, opts, rng)
	if err := n.Relevel(); err != nil {
		// Buffering cannot create cycles; a failure here indicates a
		// corrupt input, surfaced via the validation invariant.
		panic(err)
	}

	// Timing-driven sizing: repeatedly attack the worst endpoints'
	// paths. The per-pass endpoint subset and the per-cell upsize
	// decision are randomized — the "heuristics deployed to meet
	// capacity and TAT" that make the tool noisy (paper Sec. 2,
	// Challenge 2).
	maxPasses := 6 * opts.Effort
	staCfg := sta.Config{Engine: sta.Fast}
	g := sta.Compile(n)    // sizing leaves the topology as it is
	var timer sta.Analyzer // one workspace for every analysis of this run
	var bufs passBuffers
	var final *sta.Report // the report of n as it stands, nil once resized
	for pass := 0; pass < maxPasses; pass++ {
		final = timer.Analyze(g, staCfg)
		res.Passes++
		if final.WNSPs >= 0 {
			break
		}
		if bufs.upsizePass(g, &timer, final, opts, rng, &res) == 0 {
			break // saturated: every critical cell at max drive
		}
		final = nil
	}
	if final == nil {
		final = timer.Analyze(g, staCfg)
	}
	res.WNSPs = final.WNSPs
	res.TNSPs = final.TNSPs
	res.Met = final.WNSPs >= 0
	res.AreaUm2 = n.Area()
	res.LeakageNW = n.Leakage()
	return res
}

// bufferHighFanout splits nets with excessive fanout behind buffers,
// choosing the split partition randomly.
func bufferHighFanout(n *netlist.Netlist, opts Options, rng *rand.Rand) int {
	buf := n.Lib.Smallest(cellib.Buffer)
	for i := 0; i < 2; i++ { // X4 buffer: two sizes up
		buf, _ = n.Lib.Upsize(buf)
	}
	added := 0
	numNets := len(n.Nets) // snapshot: don't re-buffer new nets
	for netID := 0; netID < numNets; netID++ {
		net := &n.Nets[netID]
		if net.IsClock || len(net.Sinks) <= opts.MaxFanout {
			continue
		}
		sinks := append([]netlist.PinRef(nil), net.Sinks...)
		rng.Shuffle(len(sinks), func(i, j int) { sinks[i], sinks[j] = sinks[j], sinks[i] })
		// Move all but MaxFanout/2 sinks behind buffers, in groups.
		group := opts.MaxFanout
		for len(sinks) > opts.MaxFanout {
			k := group
			if k > len(sinks)-opts.MaxFanout/2 {
				k = len(sinks) - opts.MaxFanout/2
			}
			n.InsertBuffer(netID, sinks[:k], buf)
			sinks = sinks[k:]
			added++
		}
	}
	return added
}

// passBuffers are upsizePass's working arrays, owned by Run so that the
// passes of one synthesis share them, sized by the first for the most any
// pass can hold. The zero value is ready to use.
type passBuffers struct {
	seen   []bool // inst -> already a candidate in this pass
	walk   coneWalker
	viol   []sta.Endpoint
	cands  []cand
	top    []cand    // topThird's pick, when it did not sort
	scores []float64 // its scratch copy of the scores
}

// upsizePass strengthens cells on violating paths of g's netlist. rep is
// timer's report of it as it stands, so timer.Load is each net's load.
// Returns the number of cells changed.
func (b *passBuffers) upsizePass(g *sta.Graph, timer *sta.Analyzer, rep *sta.Report, opts Options, rng *rand.Rand, res *Result) int {
	n := g.Netlist()
	if len(b.seen) != len(n.Insts) {
		// A candidate is a distinct cell, a third of them plus one are
		// resized, and every violation is an endpoint.
		b.seen = make([]bool, len(n.Insts))
		b.walk = coneWalker{reach: make([]int8, len(n.Insts))}
		b.cands, b.scores = make([]cand, 0, len(n.Insts)), make([]float64, 0, len(n.Insts))
		b.top = make([]cand, 0, len(n.Insts)/3+1)
		b.viol = make([]sta.Endpoint, 0, len(rep.Endpoints))
	}
	eps := rep.WorstEndpoints(len(rep.Endpoints))
	// Keep only violations; attack a random subset each pass.
	viol := b.viol[:0]
	for _, ep := range eps {
		if ep.SlackPs < 0 {
			viol = append(viol, ep)
		}
	}
	b.viol = viol
	if len(viol) == 0 {
		return 0
	}
	k := int(float64(len(viol))*opts.UpsizeFrac) + 1
	if k > len(viol) {
		k = len(viol)
	}
	rng.Shuffle(len(viol), func(i, j int) { viol[i], viol[j] = viol[j], viol[i] })
	viol = viol[:k]

	// Collect candidate instances: drivers along each violating
	// endpoint's fan-in cone, weighted toward high-load drivers.
	seen, cands := b.seen, b.cands[:0]
	clear(seen)
	clear(b.walk.reach)
	for _, ep := range viol {
		for _, id := range b.walk.faninCone(g, ep.Net, 6) {
			if seen[id] {
				continue
			}
			seen[id] = true
			out := n.FanoutNet[id]
			if out < 0 {
				continue
			}
			// Sensitivity proxy: delay reduction per area if upsized.
			cell := &n.Insts[id].Cell
			up := n.Lib.Larger(cell)
			if up == nil {
				continue
			}
			load := timer.Load(out) // no cell has been resized since the analysis
			gain := cell.Delay(load) - up.Delay(load)
			dArea := up.Area - cell.Area
			if dArea <= 0 {
				dArea = 1e-9
			}
			cands = append(cands, cand{inst: id, score: gain / dArea * (0.8 + 0.4*rng.Float64())})
		}
	}
	b.cands = cands

	top := b.topThird(cands)
	for _, c := range top {
		cell := &n.Insts[c.inst].Cell
		*cell = *n.Lib.Larger(cell)
	}
	res.Upsized += len(top)
	return len(top)
}

// cand is an upsizing candidate of one pass.
type cand struct {
	inst  int
	score float64
}

// topThird returns the candidates a pass resizes: the first len/3+1 of
// the descending score order, in no particular order. Every candidate is
// a distinct cell with a larger size to go to, so all of those change and
// their order never mattered — they are a set, which a cutoff score picks
// without sorting. Only when scores tied across the cut leave several
// such sets does the unstable sort's permutation choose among them, as it
// always did; that alone reorders cands.
func (b *passBuffers) topThird(cands []cand) []cand {
	if len(cands) == 0 {
		return nil
	}
	budget := len(cands)/3 + 1
	scores := b.scores[:0]
	for _, c := range cands {
		scores = append(scores, c.score)
	}
	b.scores = scores
	cut := kthLargest(scores, budget)
	top, below := b.top[:0], 0
	for _, c := range cands {
		if c.score >= cut {
			top = append(top, c)
		} else if c.score < cut {
			below++
		}
	}
	b.top = top
	// The counts vouch for the set whatever kthLargest returned: they fail
	// on a tie across the cut and on a NaN score.
	if len(top) != budget || below != len(cands)-budget {
		sortCands(cands)
		return cands[:budget]
	}
	return top
}

// kthLargest returns the k-th largest (k from 1) of s, which it reorders:
// quickselect, linear on scores that carry a random factor.
func kthLargest(s []float64, k int) float64 {
	for lo, hi := 0, len(s)-1; lo < hi; {
		pivot := s[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] > pivot {
				i++
			}
			for s[j] < pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] >= pivot >= s[i..hi], and j < i.
		switch {
		case k-1 <= j:
			hi = j
		case k-1 >= i:
			lo = i
		default:
			return s[k-1]
		}
	}
	return s[k-1]
}

// sortCands orders candidates by descending score. The sort is unstable
// and ties do occur, so the permutation is part of the QoR contract: it
// is the one sort.Slice with less = "score greater" produced, because
// slices.SortFunc runs the same pdqsort and only asks whether cmp < 0 —
// minus the reflection-based swapper. A test pins the two against each
// other so a toolchain that lets them drift fails loudly.
func sortCands(cands []cand) {
	slices.SortFunc(cands, func(a, b cand) int {
		switch {
		case a.score > b.score:
			return -1
		case b.score > a.score:
			return 1
		}
		return 0
	})
}

// coneWalker holds faninCone's state across the endpoints of one pass: how
// far below each instance the pass has already looked, instead of a visited
// set per cone, and the cone and frontier buffers.
type coneWalker struct {
	// reach[inst] is 1 + the levels already expanded below inst since it was
	// last cleared; 0 means not met.
	reach          []int8
	cone           []int
	frontier, next []int32
}

// faninCone returns up to `depth` levels of drivers behind a net, in
// breadth-first discovery order, minus what earlier calls since reach was
// cleared make redundant: a driver met with at least as many levels already
// expanded below it as this cone has left is neither listed nor expanded.
// Everything within that depth of it was listed by an earlier cone, so the
// drivers no cone has listed yet — all a caller that keeps a seen set acts
// on — come back the same, in the same order, as from an unpruned walk. A
// driver met twice in one cone is met first where the most levels are left,
// so the same test makes the second meeting a skip. It walks the netlist's
// compiled graph. The slice is valid until the next call.
func (w *coneWalker) faninCone(g *sta.Graph, netID, depth int) []int {
	cone, frontier, next := w.cone[:0], append(w.frontier[:0], int32(netID)), w.next[:0]
	for left := int8(depth); left > 0 && len(frontier) > 0; left-- {
		for _, nid := range frontier {
			drv := g.Driver(int(nid))
			if drv < 0 || w.reach[drv] >= left {
				continue
			}
			w.reach[drv] = left
			cone = append(cone, drv)
			if g.Sequential(drv) {
				continue
			}
			for _, fn := range g.Fanins(drv) {
				if !g.IsClock(int(fn)) {
					next = append(next, fn)
				}
			}
		}
		frontier, next = next, frontier[:0]
	}
	w.cone, w.frontier, w.next = cone, frontier, next
	return cone
}

// MaxAchievableFreq estimates the maximum frequency reachable for a design
// by bisection on synthesis targets: the largest target the tool can meet
// (with the given seed). This defines the "aim low" frontier of Fig. 3.
func MaxAchievableFreq(design *netlist.Netlist, base Options, loGHz, hiGHz float64) float64 {
	for i := 0; i < 12; i++ {
		mid := (loGHz + hiGHz) / 2
		o := base
		o.TargetFreqGHz = mid
		if Run(design, o).Met {
			loGHz = mid
		} else {
			hiGHz = mid
		}
	}
	return loGHz
}
