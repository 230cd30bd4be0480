package route

import (
	"math"
	"math/rand"
	"runtime"

	"repro/internal/netlist"
	"repro/internal/num"
	"repro/internal/sched"
	"repro/internal/trace"
)

const (
	// boundaryPasses is how many rip-up-and-reroute sweeps the boundary
	// reconciliation runs over the randomly seeded initial assignment.
	boundaryPasses = 6
	// boundaryChunk is the speculation window: pairs price
	// concurrently in fixed chunks of this size against a demand
	// snapshot frozen at the chunk boundary, so at most this many
	// pairs reroute blind to each other. Damped flips (below) are what
	// keeps a wide window from oscillating; the chunking bounds the
	// staleness on huge designs.
	boundaryChunk = 4096
)

// globalRouteSharded is the region-sharded parallel router selected by
// GlobalOptions.Tiles > 1. It routes in two phases:
//
// Phase 1 — tile-local nets. The congestion grid is partitioned into
// Tiles x Tiles rectangular regions. A net whose pins all map into one
// region can only ever price or claim edges joining cells of that
// region — an L-route never leaves the bounding box of its endpoints —
// so the per-region net lists touch pairwise-disjoint index sets of the
// shared demand map and are routed concurrently without
// synchronization. Each region draws its tie-break coins from its own
// stream (num.Mix of the seed and the region ID), and per-region
// wirelength partials are merged in ascending region order.
//
// Phase 2 — boundary-crossing nets, by deterministic damped
// rip-up-and-reroute. Each driver-sink pair has exactly two candidate
// routes (the two L-shapes). Pairs start on per-pair coin-flip
// choices, all committed at once; each sweep then walks the pairs in
// fixed chunks of boundaryChunk: every pair in the chunk prices both
// candidates concurrently against the demand map frozen at the chunk
// boundary — minus the pair's own committed track, the usual rip-up
// accounting — and pairs preferring the other L flip with annealed
// probability (per-pair splitmix coins), the chunk's flips committing
// serially before the next chunk prices. Demand increments are unit
// counts in float64 so commits are exact, chunk boundaries depend only
// on the pair count, and every coin sits on its own pair/pass stream —
// the result is a pure function of Seed, GridDim and Tiles. Wirelength
// is the manhattan pin-pair distance — identical for both L-shapes —
// and is banked in pair order before the sweeps run.
//
// Both phases are bit-identical at every Workers setting and
// GOMAXPROCS, but differ from the Tiles <= 1 serial net order.
func globalRouteSharded(n *netlist.Netlist, opts GlobalOptions) *GlobalResult {
	r := newRouter(n, opts)
	tiles := opts.Tiles
	numTiles := tiles * tiles
	tileOf := func(gx, gy int) int {
		return (gy*tiles/r.dim)*tiles + gx*tiles/r.dim
	}

	// Partition the routable nets: tile-local vs boundary-crossing.
	local := make([][]int, numTiles)
	var boundary []int
	for i := range n.Nets {
		net := &n.Nets[i]
		if net.IsClock || net.Driver < 0 || len(net.Sinks) == 0 {
			continue
		}
		gx, gy := r.toGrid(n.Insts[net.Driver].X, n.Insts[net.Driver].Y)
		home := tileOf(gx, gy)
		crossing := false
		for _, s := range net.Sinks {
			gx, gy = r.toGrid(n.Insts[s.Inst].X, n.Insts[s.Inst].Y)
			if tileOf(gx, gy) != home {
				crossing = true
				break
			}
		}
		if crossing {
			boundary = append(boundary, i)
		} else {
			local[home] = append(local[home], i)
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		// More crew than processors only adds pollers; results are
		// worker-invariant, so the clamp changes no output.
		workers = min(numTiles, runtime.GOMAXPROCS(0))
	}
	gang := sched.NewGang(workers)
	defer gang.Close()

	// Phase 1: regions routed concurrently, demand writes disjoint
	// by construction.
	partial := make([]float64, numTiles)
	gang.Round(numTiles, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			if len(local[t]) == 0 {
				continue
			}
			sp := trace.Begin("route.tile")
			sp.SetInt("tile", int64(t))
			sp.SetInt("nets", int64(len(local[t])))
			rng := rand.New(rand.NewSource(num.Mix(opts.Seed, uint64(t)+1)))
			for _, nid := range local[t] {
				r.routeNet(nid, rng, &partial[t])
			}
			sp.End()
		}
	})
	var wl float64
	for _, p := range partial {
		wl += p
	}

	// Phase 2: expand the boundary nets into driver-sink pairs and
	// bank their wirelength (both L-shapes have the same manhattan
	// length, so it is choice-independent).
	type boundaryPair struct {
		sx, sy, tx, ty int32
		hFirst         bool
	}
	var pairs []boundaryPair
	for _, nid := range boundary {
		net := &n.Nets[nid]
		sx, sy := r.toGrid(n.Insts[net.Driver].X, n.Insts[net.Driver].Y)
		for _, s := range net.Sinks {
			tx, ty := r.toGrid(n.Insts[s.Inst].X, n.Insts[s.Inst].Y)
			if sx == tx && sy == ty {
				continue
			}
			pairs = append(pairs, boundaryPair{int32(sx), int32(sy), int32(tx), int32(ty), false})
			wl += (math.Abs(float64(sx-tx)) + math.Abs(float64(sy-ty))) * r.w / float64(r.dim)
		}
	}

	// Initial assignment: an independent coin per pair, committed at
	// once. Pricing against the near-empty map would tie (and flip the
	// same coin) for almost every pair anyway, and a 50/50 random
	// spread is a good negotiation starting point.
	salt := num.Mix(opts.Seed, 0)
	for i := range pairs {
		p := &pairs[i]
		coin := num.NewSplitMix(num.Mix(salt, uint64(i)+1))
		p.hFirst = coin.Uint64()&1 == 0
		if p.hFirst {
			r.stampL(int(p.sx), int(p.sy), int(p.tx), int(p.ty), +1)
		} else {
			r.stampL(int(p.tx), int(p.ty), int(p.sx), int(p.sy), +1)
		}
	}

	tieSalt := num.Mix(opts.Seed, 1)
	next := make([]bool, boundaryChunk)
	for pass := 0; pass < boundaryPasses; pass++ {
		sp := trace.Begin("route.pass")
		sp.SetInt("pass", int64(pass))
		sp.SetInt("pairs", int64(len(pairs)))
		for lo := 0; lo < len(pairs); lo += boundaryChunk {
			chunk := pairs[lo:min(lo+boundaryChunk, len(pairs))]
			// Concurrent pricing: the chunk reads the frozen map,
			// writes only per-pair slots.
			gang.Round(len(chunk), func(clo, chi int) {
				for i := clo; i < chi; i++ {
					p := &chunk[i]
					sx, sy, tx, ty := int(p.sx), int(p.sy), int(p.tx), int(p.ty)
					var subRow, subCol int
					if p.hFirst {
						subRow, subCol = sy, tx
					} else {
						subRow, subCol = ty, sx
					}
					c1 := r.costL(sx, sy, tx, ty, subRow, subCol) // H then V
					c2 := r.costL(tx, ty, sx, sy, subRow, subCol) // V then H
					// Ties keep the current route. A pair that wants
					// the other L flips with annealed probability
					// 1/2^(pass+1) (its own coin): when a hot edge
					// prices a whole window off itself at once,
					// synchronous best response just seesaws — damping
					// lets a shrinking fraction move each sweep and
					// the rest re-price against the result, freezing
					// the population into a stable assignment.
					next[i] = p.hFirst
					if want := c1 < c2; want != p.hFirst && c1 != c2 {
						coin := num.NewSplitMix(num.Mix(tieSalt, uint64(lo+i)*boundaryPasses+uint64(pass)+1))
						if coin.Uint64()&(1<<(pass+1)-1) == 0 {
							next[i] = want
						}
					}
				}
			})
			// Serial commit in pair order: rip up the old track, claim
			// the new one — flips only, the common keep case is free.
			for i := range chunk {
				p := &chunk[i]
				if p.hFirst == next[i] {
					continue
				}
				if p.hFirst {
					r.stampL(int(p.sx), int(p.sy), int(p.tx), int(p.ty), -1)
				} else {
					r.stampL(int(p.tx), int(p.ty), int(p.sx), int(p.sy), -1)
				}
				p.hFirst = next[i]
				if p.hFirst {
					r.stampL(int(p.sx), int(p.sy), int(p.tx), int(p.ty), +1)
				} else {
					r.stampL(int(p.tx), int(p.ty), int(p.sx), int(p.sy), +1)
				}
			}
		}
		sp.End()
	}
	return r.finish(wl)
}
