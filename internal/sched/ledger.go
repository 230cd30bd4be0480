package sched

import (
	"sort"
	"sync"
)

// Ledger is the remote slot accountant: it tracks how many of a shared
// pool of slots ("licenses") each named owner — a worker node, a tenant
// — holds right now, and arbitrates who gets the next free one. The
// single-process Pool counts anonymous goroutines; the Ledger is its
// distributed sibling, where the holders are remote and identified and
// the grant decision must be fair across competing owners.
//
// Fairness is deterministic max-min: the next grant goes to the
// candidate holding the fewest slots relative to its weight, ties
// broken by name — so two coordinators replaying the same request
// sequence make identical grant decisions.
type Ledger struct {
	total int

	mu     sync.Mutex
	inUse  map[string]int
	weight map[string]int
	used   int
}

// NewLedger creates a ledger over total shared slots (total < 1 is
// clamped to 1).
func NewLedger(total int) *Ledger {
	if total < 1 {
		total = 1
	}
	return &Ledger{total: total, inUse: map[string]int{}, weight: map[string]int{}}
}

// SetWeight sets an owner's fair-share weight (default 1; w < 1 is
// clamped to 1). An owner with weight 2 is entitled to twice the slots
// of a weight-1 owner before it is considered "ahead".
func (l *Ledger) SetWeight(owner string, w int) {
	if w < 1 {
		w = 1
	}
	l.mu.Lock()
	l.weight[owner] = w
	l.mu.Unlock()
}

// TryGrant takes one slot for owner if any is free, without blocking.
func (l *Ledger) TryGrant(owner string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.used >= l.total {
		return false
	}
	l.inUse[owner]++
	l.used++
	return true
}

// Release returns one of owner's slots. Releasing a slot the owner does
// not hold is a programming error and panics, like Slots.Release: a
// miscounted ledger silently inflates someone's fair share.
func (l *Ledger) Release(owner string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inUse[owner] <= 0 {
		panic("sched: Ledger.Release for owner holding no slots: " + owner)
	}
	l.inUse[owner]--
	if l.inUse[owner] == 0 {
		delete(l.inUse, owner)
	}
	l.used--
}

// PickFair chooses which candidate should receive the next slot:
// the one with the lowest weighted usage (inUse/weight), ties broken by
// name so the decision is deterministic. ok is false when candidates is
// empty. PickFair does not grant — callers follow up with TryGrant for
// the picked owner.
func (l *Ledger) PickFair(candidates []string) (owner string, ok bool) {
	if len(candidates) == 0 {
		return "", false
	}
	sorted := append([]string(nil), candidates...)
	sort.Strings(sorted)
	l.mu.Lock()
	defer l.mu.Unlock()
	best := sorted[0]
	bestScore := l.scoreLocked(best)
	for _, c := range sorted[1:] {
		if s := l.scoreLocked(c); s < bestScore {
			best, bestScore = c, s
		}
	}
	return best, true
}

// scoreLocked is owner's weighted usage. Caller holds l.mu.
func (l *Ledger) scoreLocked(owner string) float64 {
	w := l.weight[owner]
	if w < 1 {
		w = 1
	}
	return float64(l.inUse[owner]) / float64(w)
}
