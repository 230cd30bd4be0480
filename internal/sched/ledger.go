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
// candidate holding the fewest slots, ties broken by name — so two coordinators replaying the same request
// sequence make identical grant decisions.
type Ledger struct {
	total int

	mu    sync.Mutex
	inUse map[string]int
	used  int
}

// NewLedger creates a ledger over total shared slots (total < 1 is
// clamped to 1).
func NewLedger(total int) *Ledger {
	if total < 1 {
		total = 1
	}
	return &Ledger{total: total, inUse: map[string]int{}}
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
// the one holding the fewest slots, ties broken by name so the decision is deterministic. ok is false when candidates is
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
	for _, c := range sorted[1:] {
		if l.inUse[c] < l.inUse[best] {
			best = c
		}
	}
	return best, true
}
