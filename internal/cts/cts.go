// Package cts implements clock-tree synthesis over the placed design: a
// recursive geometric (means-and-medians style) buffer tree over all
// flip-flop sinks, yielding per-sink insertion latency and skew.
//
// The resulting skew vector feeds the signoff timing analysis (the
// "clock buffer and topology change through ... timing analysis"
// prediction chain the paper cites as ref [13]).
package cts

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/num"
)

// Options are the CTS knobs.
type Options struct {
	Seed        int64
	FanoutLimit int     // max sinks driven by one buffer (default 16)
	Jitter      float64 // buffer placement jitter in um (default 0.5; tool noise)
}

func (o Options) withDefaults() Options {
	if o.FanoutLimit <= 0 {
		o.FanoutLimit = 16
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	} else if o.Jitter == 0 {
		o.Jitter = 0.5
	}
	return o
}

// Result reports the synthesized clock tree.
type Result struct {
	// SkewPs[inst] is the clock arrival offset of each instance
	// relative to the mean insertion latency (0 for non-sinks).
	SkewPs []float64

	MaxSkewPs    float64 // max |skew|
	LatencyPs    float64 // mean insertion delay
	Buffers      int     // clock buffers inserted
	TreeLevels   int     // depth of the buffer tree
	WirelengthUm float64 // total clock wirelength
	AreaUm2      float64 // added buffer area
	PowerNW      float64 // added buffer leakage
}

type sink struct {
	inst int
	x, y float64
}

// Synthesize builds a clock tree for the placed netlist and returns
// per-instance skews. The netlist is not modified; buffer area/power are
// reported for the flow to account.
func Synthesize(n *netlist.Netlist, opts Options) Result {
	opts = opts.withDefaults()
	rng := rand.New(num.NewRand(opts.Seed))
	buf := n.Lib.Variants(cellib.ClockBuffer)[2] // X4 clock buffer

	res := Result{SkewPs: make([]float64, n.NumCells())}
	ffs := n.Sequential()
	if len(ffs) == 0 {
		return res
	}
	sinks := make([]sink, len(ffs))
	for i, ff := range ffs {
		sinks[i] = sink{inst: ff, x: n.Insts[ff].X, y: n.Insts[ff].Y}
	}

	// Root at the sink centroid.
	var cx, cy float64
	for _, s := range sinks {
		cx += s.x
		cy += s.y
	}
	cx /= float64(len(sinks))
	cy /= float64(len(sinks))

	latency := make(map[int]float64, len(sinks))
	var build func(sinks []sink, x, y, acc float64, level int)
	build = func(sinks []sink, x, y, acc float64, level int) {
		if level > res.TreeLevels {
			res.TreeLevels = level
		}
		if len(sinks) <= opts.FanoutLimit {
			// Leaf buffer drives the sinks directly.
			load := float64(len(sinks)) // 1 fF clock pin cap per sink
			var wl float64
			for _, s := range sinks {
				wl += math.Abs(s.x-x) + math.Abs(s.y-y)
			}
			res.WirelengthUm += wl
			load += n.Lib.Wire.CapPerUm * wl
			d := buf.Delay(load)
			res.Buffers++
			res.AreaUm2 += buf.Area
			res.PowerNW += buf.Leakage
			for _, s := range sinks {
				wire := n.Lib.Wire.Delay(math.Abs(s.x-x)+math.Abs(s.y-y), buf.Resist)
				latency[s.inst] = acc + d + wire
			}
			return
		}
		// Split along the wider dimension at the median.
		minX, maxX := sinks[0].x, sinks[0].x
		minY, maxY := sinks[0].y, sinks[0].y
		for _, s := range sinks {
			minX, maxX = math.Min(minX, s.x), math.Max(maxX, s.x)
			minY, maxY = math.Min(minY, s.y), math.Max(maxY, s.y)
		}
		byX := maxX-minX >= maxY-minY
		sort.Slice(sinks, func(i, j int) bool {
			if byX {
				return sinks[i].x < sinks[j].x
			}
			return sinks[i].y < sinks[j].y
		})
		mid := len(sinks) / 2
		halves := [][]sink{sinks[:mid], sinks[mid:]}
		res.Buffers++
		res.AreaUm2 += buf.Area
		res.PowerNW += buf.Leakage
		for _, h := range halves {
			var hx, hy float64
			for _, s := range h {
				hx += s.x
				hy += s.y
			}
			hx = hx/float64(len(h)) + (rng.Float64()-0.5)*opts.Jitter
			hy = hy/float64(len(h)) + (rng.Float64()-0.5)*opts.Jitter
			dist := math.Abs(hx-x) + math.Abs(hy-y)
			res.WirelengthUm += dist
			stage := buf.Delay(2*buf.InputCap+n.Lib.Wire.CapPerUm*dist) +
				n.Lib.Wire.Delay(dist, buf.Resist)
			build(h, hx, hy, acc+stage, level+1)
		}
	}
	build(sinks, cx, cy, 0, 1)

	// Iterate sinks in ID order: map-order float summation would make
	// the last bits of latency (and thus skew) nondeterministic.
	insts := make([]int, 0, len(latency))
	for inst := range latency {
		insts = append(insts, inst)
	}
	sort.Ints(insts)
	var sum float64
	for _, inst := range insts {
		sum += latency[inst]
	}
	res.LatencyPs = sum / float64(len(latency))
	for _, inst := range insts {
		sk := latency[inst] - res.LatencyPs
		res.SkewPs[inst] = sk
		if math.Abs(sk) > res.MaxSkewPs {
			res.MaxSkewPs = math.Abs(sk)
		}
	}
	return res
}
