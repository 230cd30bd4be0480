package sched

import (
	"runtime"
	"sync"
	"testing"
)

func TestLedgerReleaseWithoutGrantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without grant must panic")
		}
	}()
	NewLedger(1).Release("ghost")
}

func TestLedgerPickFairDeterministic(t *testing.T) {
	l := NewLedger(10)
	cands := []string{"t2", "t1", "t3"}
	// All even: lexicographically first wins.
	if o, _ := l.PickFair(cands); o != "t1" {
		t.Fatalf("even pick = %s, want t1", o)
	}
	l.TryGrant("t1")
	l.TryGrant("t1")
	l.TryGrant("t2")
	// t3 holds nothing.
	if o, _ := l.PickFair(cands); o != "t3" {
		t.Fatalf("pick = %s, want t3", o)
	}
	if _, ok := l.PickFair(nil); ok {
		t.Fatal("PickFair(nil) must report !ok")
	}
}

// TestLedgerConcurrentAccounting: grants and releases racing from many
// goroutines never exceed the shared total and leave nothing held.
func TestLedgerConcurrentAccounting(t *testing.T) {
	l := NewLedger(4)
	owners := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := owners[i%len(owners)]
			for j := 0; j < 50; {
				if !l.TryGrant(o) {
					runtime.Gosched()
					continue
				}
				l.mu.Lock()
				used := l.used
				l.mu.Unlock()
				if used > l.total {
					t.Errorf("%d slots in use of %d", used, l.total)
				}
				l.Release(o)
				j++
			}
		}(i)
	}
	wg.Wait()
	if l.used != 0 || len(l.inUse) != 0 {
		t.Fatalf("leaked slots: used %d, held %v", l.used, l.inUse)
	}
	for i := 0; i < 4; i++ {
		if !l.TryGrant(owners[i%len(owners)]) {
			t.Fatalf("grant %d of 4 refused after every slot came back", i+1)
		}
	}
	if l.TryGrant("a") {
		t.Fatal("a fifth grant over 4 slots succeeded")
	}
}
