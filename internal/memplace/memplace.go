// Package memplace implements memory-macro placement in a P&R block —
// the third of the paper's Sec. 3.1 robot-engineer applications
// ("placement of memory instances in a P&R block").
//
// The classic manual recipe places memories along the block periphery
// (so the standard-cell area stays contiguous and routable), oriented
// toward the logic that talks to them. The robot searches edge slots
// for a legal, non-overlapping assignment minimizing total
// macro-to-logic wirelength; the baseline scatters macros randomly on
// the periphery.
package memplace

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/num"
)

// Macro is one memory instance to place.
type Macro struct {
	Name string
	W, H float64
	// LogicX/LogicY is the centroid of the logic connected to this
	// macro (pins pull the macro toward it).
	LogicX, LogicY float64
	// Weight is the connection count to that logic.
	Weight float64

	// Placed position (lower-left), set by the placer.
	X, Y float64
	// Edge the macro landed on (0=bottom,1=right,2=top,3=left).
	Edge int
}

// Block is the placement region.
type Block struct {
	W, H float64
}

// Result is a completed macro placement.
type Result struct {
	Macros       []Macro
	WirelengthUm float64 // weighted macro-center to logic-centroid distance
	Legal        bool    // no overlaps, all inside the block
}

// edgeSlot describes a candidate position along an edge.
type edgeSlot struct {
	edge int
	pos  float64 // offset along the edge
}

// place computes the (x, y) of a macro at an edge offset.
func place(b Block, m Macro, s edgeSlot) (x, y float64) {
	switch s.edge {
	case 0: // bottom
		return s.pos, 0
	case 1: // right
		return b.W - m.W, s.pos
	case 2: // top
		return s.pos, b.H - m.H
	default: // left
		return 0, s.pos
	}
}

// overlaps reports rectangle overlap with a small tolerance.
func overlaps(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
	return ax < bx+bw-1e-9 && bx < ax+aw-1e-9 && ay < by+bh-1e-9 && by < ay+ah-1e-9
}

// Robot places macros greedily: heaviest-connected macro first, each
// into the legal edge slot nearest its logic centroid. Slot candidates
// are sampled at a fine pitch along all four edges.
func Robot(b Block, macros []Macro) Result {
	res := Result{Macros: append([]Macro(nil), macros...), Legal: true}
	order := make([]int, len(res.Macros))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return res.Macros[order[i]].Weight > res.Macros[order[j]].Weight
	})
	var placed []int
	for _, mi := range order {
		m := &res.Macros[mi]
		best := math.Inf(1)
		var bestSlot edgeSlot
		found := false
		const samples = 64
		for edge := 0; edge < 4; edge++ {
			var span, depth float64
			if edge == 0 || edge == 2 {
				span, depth = b.W-m.W, m.H
			} else {
				span, depth = b.H-m.H, m.W
			}
			if span < 0 || depth > math.Min(b.W, b.H) {
				continue
			}
			for s := 0; s <= samples; s++ {
				slot := edgeSlot{edge: edge, pos: span * float64(s) / samples}
				x, y := place(b, *m, slot)
				legal := true
				for _, pi := range placed {
					p := &res.Macros[pi]
					if overlaps(x, y, m.W, m.H, p.X, p.Y, p.W, p.H) {
						legal = false
						break
					}
				}
				if !legal {
					continue
				}
				d := math.Abs(x+m.W/2-m.LogicX) + math.Abs(y+m.H/2-m.LogicY)
				if d < best {
					best = d
					bestSlot = slot
					found = true
				}
			}
		}
		if !found {
			res.Legal = false
			continue
		}
		m.X, m.Y = place(b, *m, bestSlot)
		m.Edge = bestSlot.edge
		placed = append(placed, mi)
		res.WirelengthUm += m.Weight * best
	}
	if !res.Legal {
		res.WirelengthUm = math.Inf(1)
	}
	return res
}

// Random places macros at random edge slots (retrying on overlap) — the
// no-expertise baseline.
func Random(b Block, macros []Macro, seed int64) Result {
	rng := rand.New(num.NewRand(seed))
	res := Result{Macros: append([]Macro(nil), macros...), Legal: true}
	var placed []int
	for mi := range res.Macros {
		m := &res.Macros[mi]
		ok := false
		for try := 0; try < 200; try++ {
			edge := rng.Intn(4)
			var span float64
			if edge == 0 || edge == 2 {
				span = b.W - m.W
			} else {
				span = b.H - m.H
			}
			if span < 0 {
				continue
			}
			slot := edgeSlot{edge: edge, pos: rng.Float64() * span}
			x, y := place(b, *m, slot)
			legal := true
			for _, pi := range placed {
				p := &res.Macros[pi]
				if overlaps(x, y, m.W, m.H, p.X, p.Y, p.W, p.H) {
					legal = false
					break
				}
			}
			if legal {
				m.X, m.Y = x, y
				m.Edge = edge
				placed = append(placed, mi)
				res.WirelengthUm += m.Weight * (math.Abs(x+m.W/2-m.LogicX) + math.Abs(y+m.H/2-m.LogicY))
				ok = true
				break
			}
		}
		if !ok {
			res.Legal = false
			res.WirelengthUm = math.Inf(1)
			return res
		}
	}
	return res
}

// Validate checks a result: all macros inside the block, no overlaps,
// every macro touching an edge.
func Validate(b Block, res Result) bool {
	for i := range res.Macros {
		m := &res.Macros[i]
		if m.X < -1e-9 || m.Y < -1e-9 || m.X+m.W > b.W+1e-9 || m.Y+m.H > b.H+1e-9 {
			return false
		}
		onEdge := m.X < 1e-9 || m.Y < 1e-9 || m.X+m.W > b.W-1e-9 || m.Y+m.H > b.H-1e-9
		if !onEdge {
			return false
		}
		for j := i + 1; j < len(res.Macros); j++ {
			p := &res.Macros[j]
			if overlaps(m.X, m.Y, m.W, m.H, p.X, p.Y, p.W, p.H) {
				return false
			}
		}
	}
	return true
}
