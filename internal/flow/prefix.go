package flow

import (
	"sync"

	"repro/internal/cts"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
)

// Prefixes is a memo of post-synthesis prefixes: what place, cts, groute
// and droute computed for a run whose synthesis resized no cell. Such a
// run's netlist is synth.Run's buffered clone of the design at every
// target frequency, apart from ClockPeriodPs, which only synthesis and the
// timers read; the four stages after synthesis read neither the target
// nor the synthesis effort nor the signoff derate. So every run of one
// design at one prefix key (prefixOptions) whose synthesis resized nothing
// places, builds its clock tree and routes exactly alike, and a frequency
// sweep need compute that once per seed.
//
// A run that finds its prefix takes the donor's placed coordinates and
// its four stage artifacts, and computes only synthesis and signoff
// timing; everything it returns and records is what it would have
// computed. The artifacts are shared, not copied: nothing outside
// internal/route writes through a Result's Global, Route or CTS.SkewPs.
//
// A design is known by its pointer, so it must not change while a memo
// that has run it is in use. Two runs that miss the same key at once both
// compute it and the first to finish is kept; nothing waits. It is safe
// for concurrent use.
type Prefixes struct {
	mu sync.Mutex
	m  map[prefixKey]*prefix
}

// NewPrefixes returns an empty memo.
func NewPrefixes() *Prefixes { return &Prefixes{m: map[prefixKey]*prefix{}} }

// prefixKey is the identity of a post-synthesis prefix.
type prefixKey struct {
	design *netlist.Netlist
	opts   Options // prefixOptions
}

// prefix is what one run's place, cts, groute and droute left: its placed
// coordinates and the four artifacts.
type prefix struct {
	xy []float64 // X then Y of every instance
	pl place.Result
	ct cts.Result
	gr *route.GlobalResult
	dr *route.DetailResult
}

// prefixOptions returns the part of o that a run whose synthesis resized
// nothing reads after synthesis: o with defaults, without the three knobs
// only synthesis sizing and signoff read (the target frequency, the
// synthesis effort, the derate) and without the two the flow ignores.
func (o Options) prefixOptions() Options {
	o = o.withDefaults()
	o.TargetFreqGHz, o.SynthEffort, o.DeratePct = 0, 0, 0
	o.PlaceWorkers, o.RouteTiles = 0, 0
	return o
}

// adopt looks k up and, on a hit, places a's netlist as the donor's was,
// takes the donor's artifacts and sets a.reused.
func (m *Prefixes) adopt(k prefixKey, a *artifacts) {
	m.mu.Lock()
	p := m.m[k]
	m.mu.Unlock()
	if p == nil {
		return
	}
	insts := a.n.Insts
	for i := range insts {
		insts[i].X, insts[i].Y = p.xy[i], p.xy[len(insts)+i]
	}
	a.n.InvalidatePlacement()
	a.pl, a.ct, a.gr, a.dr = p.pl, p.ct, p.gr, p.dr
	a.reused = true
	metrics.Add("flow.prefix.reused", 1)
}

// store keeps a's prefix under k unless one is there already.
func (m *Prefixes) store(k prefixKey, a *artifacts) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m[k] != nil {
		return
	}
	insts := a.n.Insts
	xy := make([]float64, 2*len(insts))
	for i := range insts {
		xy[i], xy[len(insts)+i] = insts[i].X, insts[i].Y
	}
	m.m[k] = &prefix{xy: xy, pl: a.pl, ct: a.ct, gr: a.gr, dr: a.dr}
}
