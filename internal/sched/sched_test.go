package sched

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(3)
	var count int64
	tasks := make([]func(), 20)
	for i := range tasks {
		tasks[i] = func() { atomic.AddInt64(&count, 1) }
	}
	p.RunCtx(context.Background(), tasks)
	if count != 20 {
		t.Fatalf("ran %d tasks", count)
	}
	peak, total, _ := p.Stats()
	if total != 20 {
		t.Fatalf("total %d", total)
	}
	if peak > 3 {
		t.Fatalf("peak concurrency %d exceeded 3 licenses", peak)
	}
}

func TestPoolEnforcesLimit(t *testing.T) {
	p := NewPool(2)
	var active, violations int64
	tasks := make([]func(), 12)
	for i := range tasks {
		tasks[i] = func() {
			n := atomic.AddInt64(&active, 1)
			if n > 2 {
				atomic.AddInt64(&violations, 1)
			}
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt64(&active, -1)
		}
	}
	p.RunCtx(context.Background(), tasks)
	if violations > 0 {
		t.Fatalf("%d concurrency violations", violations)
	}
	peak, _, maxWait := p.Stats()
	if peak != 2 {
		t.Errorf("peak %d, want 2 (tasks should saturate the pool)", peak)
	}
	if maxWait == 0 {
		t.Error("12 tasks on 2 licenses should have queued, maxWaiting = 0")
	}
}

func TestPoolClampsToOne(t *testing.T) {
	p := NewPool(0)
	if p.Licenses() != 1 {
		t.Fatalf("licenses %d", p.Licenses())
	}
	done := false
	p.RunCtx(context.Background(), []func(){func() { done = true }})
	if !done {
		t.Fatal("task not run")
	}
}

func TestEmptyRun(t *testing.T) {
	p := NewPool(2)
	p.RunCtx(context.Background(), nil)
	if _, total, _ := p.Stats(); total != 0 {
		t.Fatal("phantom tasks")
	}
}

// TestAdmissionNotSerialized is the regression test for the old
// submitter-blocks-on-semaphore bug: with a full pool, later tasks must
// already be spawned (counted as waiting) while early tasks run, so a
// slow head task cannot delay the *launch* of the tail.
func TestAdmissionNotSerialized(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	block := func() { <-release }
	tasks := []func(){block, block, block}
	done := make(chan struct{})
	go func() {
		p.RunCtx(context.Background(), tasks)
		close(done)
	}()
	// Whichever task holds the only license blocks on release, so the
	// other two must both be queued — which only happens if Run spawns
	// every task up front instead of admitting them one at a time.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, maxWait := p.Stats(); maxWait >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tail tasks were not spawned while head task held the license")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if _, total, _ := p.Stats(); total != 3 {
		t.Fatalf("total %d", total)
	}
}

func TestRunCtxCancelAbandonsQueuedTasks(t *testing.T) {
	p := NewPool(1)
	ctx, cancel := context.WithCancel(context.Background())
	block := make(chan struct{})
	var ran int64
	tasks := make([]func(), 8)
	for i := range tasks {
		tasks[i] = func() { atomic.AddInt64(&ran, 1); <-block }
	}
	errc := make(chan error, 1)
	go func() { errc <- p.RunCtx(ctx, tasks) }()

	waitFor := func(cond func() bool, what string) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	queued := func() int { p.mu.Lock(); defer p.mu.Unlock(); return p.waiting }
	// All tasks block, so one holds the only license and the other 7
	// must already be spawned and queued — the spawn-first admission
	// the old submitter-side semaphore serialized away.
	waitFor(func() bool { return queued() == 7 }, "tail tasks to queue")
	cancel() // the doomed-run STOP
	// The license is still held, so every queued task can only abandon.
	waitFor(func() bool { return queued() == 0 }, "queued tasks to abandon")
	close(block)
	if err := <-errc; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&ran); got != 1 {
		t.Fatalf("ran %d tasks, want exactly the in-flight one", got)
	}
}

// TestMapCtxPreCancelledRunsNothing is the regression test for the
// acquire-after-cancel race: with a context that is already dead when a
// task wins a license, the task must still be abandoned, so a
// pre-cancelled MapCtx executes exactly zero tasks.
func TestMapCtxPreCancelledRunsNothing(t *testing.T) {
	p := NewPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed int64
	out, ran, err := MapCtx(ctx, p, 100, func(i int) int {
		atomic.AddInt64(&executed, 1)
		return i + 1
	})
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if executed != 0 {
		t.Fatalf("pre-cancelled ctx executed %d tasks, want 0", executed)
	}
	if len(out) != 100 || len(ran) != 100 {
		t.Fatalf("len out %d, len ran %d", len(out), len(ran))
	}
	for i := range out {
		if ran[i] || out[i] != 0 {
			t.Fatalf("slot %d: ran=%t out=%d, want abandoned zero", i, ran[i], out[i])
		}
	}
}

// TestMapCtxRanDistinguishesComputedZeros checks that a task whose
// result is genuinely the zero value is distinguishable from an
// abandoned slot via ran.
func TestMapCtxRanDistinguishesComputedZeros(t *testing.T) {
	p := NewPool(2)
	out, ran, err := MapCtx(context.Background(), p, 6, func(i int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if !ran[i] {
			t.Fatalf("slot %d not marked ran", i)
		}
		if out[i] != 0 {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}
