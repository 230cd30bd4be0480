// Package pkglayout implements package layout automation — the fourth
// of the paper's Sec. 3.1 robot-engineer applications. The modeled task
// is die-to-package signal assignment: each die I/O escapes at a point
// on the die edge and must be assigned to a package ball on a
// surrounding ring; bond/redistribution wires must not cross, and total
// wire length should be minimal.
//
// For escapes on a common die-edge ring and balls on a package ring,
// crossing-free assignments are exactly the order-preserving (cyclic)
// ones, so the robot enumerates rotations of the order-preserving
// assignment and keeps the shortest — a provably crossing-free optimum
// within that family. (With per-signal escape radii the guarantee is
// only approximate.) The baseline greedily grabs the nearest free ball
// per signal, which tangles.
package pkglayout

import (
	"math"
	"sort"
)

// Signal is one die I/O with its escape position on the die boundary,
// given as an angle (radians) and radius from die center.
type Signal struct {
	Name  string
	Angle float64 // position angle on the die edge
	R     float64 // die escape radius
}

// Ball is a package ball on the ring.
type Ball struct {
	Angle float64
	R     float64
}

// Ring builds n balls uniformly on a ring of the given radius.
func Ring(n int, radius float64) []Ball {
	balls := make([]Ball, n)
	for i := range balls {
		balls[i] = Ball{Angle: 2 * math.Pi * float64(i) / float64(n), R: radius}
	}
	return balls
}

// Assignment maps signal index -> ball index.
type Assignment []int

// wire returns the straight-line length of one signal-to-ball wire.
func wire(s Signal, b Ball) float64 {
	sx, sy := s.R*math.Cos(s.Angle), s.R*math.Sin(s.Angle)
	bx, by := b.R*math.Cos(b.Angle), b.R*math.Sin(b.Angle)
	return math.Hypot(sx-bx, sy-by)
}

// Length returns the total wire length of an assignment.
func Length(signals []Signal, balls []Ball, a Assignment) float64 {
	var total float64
	for si, bi := range a {
		if bi >= 0 {
			total += wire(signals[si], balls[bi])
		}
	}
	return total
}

// Crossings counts wire pairs that cross. Two wires on a ring cross iff
// their signal order and ball order disagree cyclically; computed
// geometrically here for generality.
func Crossings(signals []Signal, balls []Ball, a Assignment) int {
	type seg struct{ x1, y1, x2, y2 float64 }
	segs := make([]seg, 0, len(a))
	for si, bi := range a {
		if bi < 0 {
			continue
		}
		s, b := signals[si], balls[bi]
		segs = append(segs, seg{
			s.R * math.Cos(s.Angle), s.R * math.Sin(s.Angle),
			b.R * math.Cos(b.Angle), b.R * math.Sin(b.Angle),
		})
	}
	cross := 0
	for i := 0; i < len(segs); i++ {
		for j := i + 1; j < len(segs); j++ {
			if segsIntersect(segs[i].x1, segs[i].y1, segs[i].x2, segs[i].y2,
				segs[j].x1, segs[j].y1, segs[j].x2, segs[j].y2) {
				cross++
			}
		}
	}
	return cross
}

func segsIntersect(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
	d1 := cross2(dx-cx, dy-cy, ax-cx, ay-cy)
	d2 := cross2(dx-cx, dy-cy, bx-cx, by-cy)
	d3 := cross2(bx-ax, by-ay, cx-ax, cy-ay)
	d4 := cross2(bx-ax, by-ay, dx-ax, dy-ay)
	return d1*d2 < 0 && d3*d4 < 0
}

func cross2(ax, ay, bx, by float64) float64 { return ax*by - ay*bx }

// Robot assigns signals to balls order-preservingly: signals sorted by
// angle map to consecutive balls, every cyclic rotation is tried, and
// the shortest crossing-free rotation is returned (falling back to the
// shortest overall if no rotation is clean, which cannot happen for
// escapes on a common ring). Requires len(balls) >= len(signals).
func Robot(signals []Signal, balls []Ball) Assignment {
	n, m := len(signals), len(balls)
	if n == 0 || m < n {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return signals[order[i]].Angle < signals[order[j]].Angle })
	ballOrder := make([]int, m)
	for i := range ballOrder {
		ballOrder[i] = i
	}
	sort.Slice(ballOrder, func(i, j int) bool { return balls[ballOrder[i]].Angle < balls[ballOrder[j]].Angle })

	best := math.Inf(1)
	bestClean := math.Inf(1)
	var bestAssign, bestCleanAssign Assignment
	for rot := 0; rot < m; rot++ {
		a := make(Assignment, n)
		for k, si := range order {
			a[si] = ballOrder[(rot+k*m/n)%m]
		}
		l := Length(signals, balls, a)
		if l < best {
			best = l
			bestAssign = a
		}
		// Order preservation alone permits crossings when a wire wraps
		// far around the ring; verify geometrically and prefer the
		// shortest rotation that is actually clean.
		if Crossings(signals, balls, a) == 0 && l < bestClean {
			bestClean = l
			bestCleanAssign = a
		}
	}
	if bestCleanAssign != nil {
		return bestCleanAssign
	}
	return bestAssign
}

// Greedy is the baseline: each signal in input order takes the nearest
// unused ball. Short-sighted — late signals detour and wires cross.
func Greedy(signals []Signal, balls []Ball) Assignment {
	n, m := len(signals), len(balls)
	if n == 0 || m < n {
		return nil
	}
	used := make([]bool, m)
	a := make(Assignment, n)
	for si := range signals {
		best, bestD := -1, math.Inf(1)
		for bi := range balls {
			if used[bi] {
				continue
			}
			if d := wire(signals[si], balls[bi]); d < bestD {
				best, bestD = bi, d
			}
		}
		a[si] = best
		used[best] = true
	}
	return a
}
