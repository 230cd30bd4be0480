package flow

import (
	"sync"

	"repro/internal/netlist"
)

// Prefixes is a memo of post-synthesis prefixes: everything a run whose
// synthesis resized no cell computed but its signoff slack. Such a run's
// netlist is synth.Run's buffered clone of the design at every target
// frequency, apart from ClockPeriodPs; the four stages after synthesis read
// neither the target nor the synthesis effort nor the signoff derate; and
// the timers' propagated arrivals never read the period either, which
// enters an analysis only at its endpoints. So every run of one design at
// one prefix key (PrefixOptions) whose synthesis would resize nothing
// synthesises, places, builds its clock tree, routes and propagates exactly
// alike, and a frequency sweep need compute that once per seed.
//
// A run looks its prefix up before synthesis. On a hit whose fast slack at
// its own period shows that its synthesis would resize nothing, it takes
// the donor's netlist under a header of its own at its own period, the
// donor's synthesis result with the sizing pass's timing evaluated at that
// period, and the donor's place, cts, groute and droute artifacts; its
// signoff report is the donor's signoff timing evaluated at its period, or,
// at another derate, a full signoff of its own netlist. Everything it
// returns and records is what it would have computed. Any other run
// computes every stage.
//
// An entry is the donor's own artifact set, stored once the donor has
// finished: nothing is copied. Its netlist is the donor's Result.Netlist,
// and every run that adopts it returns that netlist's instance, net and pin
// storage under a header of its own (see netlist.Netlist), so a memo
// serves only runs whose results are treated as immutable, as a campaign's
// cache demands of every keyed point; a caller that edits a result's
// netlist must not hand that run a memo. The other artifacts are shared
// with every run that reuses them, as they always were: nothing outside
// internal/route writes through a Result's Global, Route or CTS.SkewPs,
// and a report or timer is only read.
//
// A design is known by its pointer, so it must not change while a memo
// that has run it is in use. Two runs that miss the same key at once both
// compute it and the first to finish is kept; nothing waits. It is safe
// for concurrent use.
type Prefixes struct {
	mu sync.Mutex
	m  map[prefixKey]*artifacts
}

// NewPrefixes returns an empty memo.
func NewPrefixes() *Prefixes { return &Prefixes{m: map[prefixKey]*artifacts{}} }

// prefixKey is the identity of a post-synthesis prefix.
type prefixKey struct {
	design *netlist.Netlist
	opts   Options // PrefixOptions
}

// PrefixOptions returns the part of o that a run whose synthesis resized
// nothing reads outside its endpoint slack: o with defaults, without the
// three knobs only synthesis sizing and signoff read (the target frequency,
// the synthesis effort, the derate) and without the two the flow ignores.
// Two runs of one design may share a post-synthesis prefix through a
// Prefixes memo only when their PrefixOptions are equal.
func (o Options) PrefixOptions() Options {
	o = o.withDefaults()
	o.TargetFreqGHz, o.SynthEffort, o.DeratePct = 0, 0, 0
	o.PlaceWorkers, o.RouteTiles = 0, 0
	return o
}

// lookup returns the prefix stored under k, or nil.
func (m *Prefixes) lookup(k prefixKey) *artifacts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[k]
}

// store keeps the finished run's artifacts under k unless a prefix is
// there already.
func (m *Prefixes) store(k prefixKey, donor *artifacts) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m[k] == nil {
		m.m[k] = donor
	}
}

// adopt makes a the run that the donor p implies at a's options, unless its
// synthesis would resize a cell: the donor's netlist under a header of a's
// own at a's clock period (as synth.Run sets it), the donor's synthesis
// result with the sizing pass's timing at that period, its four stage
// artifacts and, at the donor's derate, its signoff timing at that period.
// It reports whether it did; a run it did not adopt computes every stage.
func (a *artifacts) adopt(p *artifacts) bool {
	period := 1000 / a.opts.TargetFreqGHz
	wns := p.fast.WNSAt(period)
	if !(wns >= 0) {
		return false // the first sizing pass would resize cells
	}
	n := *p.n // the donor's storage, which no finished run writes
	n.ClockPeriodPs = period
	a.n = &n
	// Passes 1 and Upsized 0, as every donor's; the donor's area, leakage
	// and buffers. A met timing has no negative slack to total.
	a.syn = p.syn
	a.syn.Netlist, a.syn.WNSPs, a.syn.TNSPs, a.syn.Met = a.n, wns, 0, true
	a.pl, a.ct, a.gr, a.dr = p.pl, p.ct, p.gr, p.dr
	if a.opts.DeratePct == p.opts.DeratePct {
		a.sign = p.signer.ReportAt(period)
	}
	a.reused = true
	return true
}
