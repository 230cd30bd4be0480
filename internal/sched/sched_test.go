package sched

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
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

// waitFor polls cond until it holds, failing after five seconds — the
// timeout only turns a deadlock into a message.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// queued reads the pool's count of tasks waiting for a license.
func (p *Pool) queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waiting
}

// blockers returns n tasks that each mark themselves running and then
// block until their own release channel closes.
func blockers(n int) (tasks []func(), running []atomic.Bool, release []chan struct{}) {
	tasks, running, release = make([]func(), n), make([]atomic.Bool, n), make([]chan struct{}, n)
	for i := range tasks {
		release[i] = make(chan struct{})
		tasks[i] = func() {
			running[i].Store(true)
			<-release[i]
			running[i].Store(false)
		}
	}
	return tasks, running, release
}

// runningSet lists the indices of the tasks that are running.
func runningSet(running []atomic.Bool) []int {
	var set []int
	for i := range running {
		if running[i].Load() {
			set = append(set, i)
		}
	}
	return set
}

// TestAdmissionNotSerialized is the regression test for the old
// submitter-blocks-on-semaphore bug: with a full pool, every later task
// must already count as queued while the head task runs, and its
// sched.wait span must already be open, so a slow head task cannot delay
// the admission of the tail.
func TestAdmissionNotSerialized(t *testing.T) {
	tr := trace.New(0)
	var clock atomic.Int64 // each reading is later than every earlier one
	tr.SetClock(func() time.Duration { return time.Duration(clock.Add(1)) })
	trace.Enable(tr)
	defer trace.Disable()

	p := NewPool(1)
	tasks, running, release := blockers(3)
	done := make(chan struct{})
	go func() {
		p.RunCtx(context.Background(), tasks)
		close(done)
	}()
	waitFor(t, func() bool { return running[0].Load() }, "the head task to start")
	if q := p.queued(); q != 2 {
		t.Fatalf("%d tasks queued behind the head task, want 2", q)
	}
	if _, _, maxWait := p.Stats(); maxWait != 3 {
		t.Fatalf("maxWaiting %d, want 3: every task is queued on entry", maxWait)
	}
	for _, c := range release {
		close(c)
	}
	<-done
	if _, total, _ := p.Stats(); total != 3 {
		t.Fatalf("total %d", total)
	}
	var waits, firstRun []time.Duration
	spans, _ := tr.Snapshot()
	for _, sp := range spans {
		switch sp.Name {
		case "sched.wait":
			waits = append(waits, sp.Start)
		case "sched.run":
			if len(firstRun) == 0 || sp.Start < firstRun[0] {
				firstRun = []time.Duration{sp.Start}
			}
		}
	}
	if len(waits) != 3 || len(firstRun) != 1 {
		t.Fatalf("%d sched.wait spans and %d sched.run, want 3 and some", len(waits), len(firstRun))
	}
	for _, w := range waits {
		if w > firstRun[0] {
			t.Fatalf("a sched.wait span opened at %v, after the first task ran at %v", w, firstRun[0])
		}
	}
}

// TestRunCtxStartsTasksInIndexOrder: the tasks that run are always the
// lowest-indexed ones not yet finished, licenses of them at a time —
// each freed license goes to the next task in index order.
func TestRunCtxStartsTasksInIndexOrder(t *testing.T) {
	const licenses, n = 2, 7
	p := NewPool(licenses)
	tasks, running, release := blockers(n)
	done := make(chan struct{})
	go func() {
		p.RunCtx(context.Background(), tasks)
		close(done)
	}()
	for head := 0; head < n; head++ {
		want := []int{head}
		for i := head + 1; i < min(head+licenses, n); i++ {
			want = append(want, i)
		}
		waitFor(t, func() bool { return len(runningSet(running)) == len(want) }, fmt.Sprintf("tasks %v to run", want))
		if got := runningSet(running); !slices.Equal(got, want) {
			t.Fatalf("running %v, want %v", got, want)
		}
		close(release[head])
		waitFor(t, func() bool { return !running[head].Load() }, fmt.Sprintf("task %d to finish", head))
	}
	<-done
	if peak, total, _ := p.Stats(); peak != licenses || total != n {
		t.Fatalf("peak %d, total %d; want %d, %d", peak, total, licenses, n)
	}
}

// TestRunCtxRunsOnLicensedGoroutines: however many tasks there are, they
// run on at most licenses goroutines, and never more than licenses at
// once.
func TestRunCtxRunsOnLicensedGoroutines(t *testing.T) {
	const licenses = 3
	p := NewPool(licenses)
	var (
		mu      sync.Mutex
		gids    = map[string]bool{}
		active  atomic.Int64
		tooMany atomic.Bool
	)
	tasks := make([]func(), 64)
	for i := range tasks {
		tasks[i] = func() {
			if active.Add(1) > licenses {
				tooMany.Store(true)
			}
			buf := make([]byte, 64)
			id := strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1] // "goroutine N [...]"
			mu.Lock()
			gids[id] = true
			mu.Unlock()
			runtime.Gosched()
			active.Add(-1)
		}
	}
	if err := p.RunCtx(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if len(gids) > licenses {
		t.Fatalf("64 tasks ran on %d goroutines, want <= %d licenses", len(gids), licenses)
	}
	if tooMany.Load() {
		t.Fatalf("more than %d tasks ran at once", licenses)
	}
}

// TestRunCtxCancelAbandonsQueuedTasks: cancelling while every license is
// held abandons exactly the tasks that had not started, at once — their
// sched.wait spans end aborted and the queue empties before any license
// frees — and the in-flight ones finish.
func TestRunCtxCancelAbandonsQueuedTasks(t *testing.T) {
	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()

	const licenses, n = 2, 8
	p := NewPool(licenses)
	ctx, cancel := context.WithCancel(context.Background())
	block := make(chan struct{})
	var started [n]atomic.Bool
	errc := make(chan error, 1)
	var ran []bool
	go func() {
		var err error
		_, ran, err = MapCtx(ctx, p, n, func(i int) int {
			started[i].Store(true)
			<-block
			return i
		})
		errc <- err
	}()
	waitFor(t, func() bool { return started[0].Load() && started[1].Load() }, "the head tasks to start")
	if q := p.queued(); q != n-licenses {
		t.Fatalf("%d tasks queued, want %d", q, n-licenses)
	}
	cancel() // the doomed-run STOP
	// The licenses are still held, so every queued task can only abandon.
	waitFor(t, func() bool { return p.queued() == 0 }, "queued tasks to abandon")
	close(block)
	if err := <-errc; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range ran {
		if ran[i] != (i < licenses) || started[i].Load() != (i < licenses) {
			t.Fatalf("task %d: ran=%t started=%t; want exactly the %d in-flight tasks", i, ran[i], started[i].Load(), licenses)
		}
	}
	aborted := 0
	spans, _ := tr.Snapshot()
	for _, sp := range spans {
		if sp.Name == "sched.wait" && sp.Outcome == trace.Aborted {
			aborted++
		}
	}
	if aborted != n-licenses {
		t.Fatalf("%d sched.wait spans ended aborted, want %d", aborted, n-licenses)
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
