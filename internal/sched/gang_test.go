package sched

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestGangRoundCoversIndexSpace(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 3, 7, 64, 1000} {
			g := NewGang(workers)
			hits := make([]int32, n)
			g.Round(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			g.Close()
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestGangRoundReusable(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	var total atomic.Int64
	for round := 0; round < 200; round++ {
		g.Round(37, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
	}
	if got := total.Load(); got != 200*37 {
		t.Fatalf("200 rounds of 37 indices covered %d, want %d", got, 200*37)
	}
}

func TestGangRoundIsBarrier(t *testing.T) {
	g := NewGang(8)
	defer g.Close()
	buf := make([]int, 256)
	for round := 1; round <= 50; round++ {
		r := round
		g.Round(len(buf), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				buf[i] = r
			}
		})
		// If Round returned before every chunk finished, a stale value
		// from the previous round would still be visible here.
		for i, v := range buf {
			if v != r {
				t.Fatalf("round %d: index %d holds %d after barrier", r, i, v)
			}
		}
	}
}

func TestGangClampsWorkers(t *testing.T) {
	g := NewGang(0)
	defer g.Close()
	if g.Workers() != 1 {
		t.Fatalf("NewGang(0) workers = %d, want 1", g.Workers())
	}
	ran := false
	g.Round(5, func(lo, hi int) {
		if lo == 0 && hi == 5 {
			ran = true
		}
	})
	if !ran {
		t.Fatal("single-worker gang should run the whole range inline")
	}
}

// TestGangRoundsOnOneProcessor: with a single P, a wait that only spins
// starves the goroutine it waits for and ends only when the runtime
// preempts it. The rounds run in a child process with asynchronous
// preemption switched off, where such a wait never ends; every Gang wait
// blocks after a bounded spin, so the child finishes.
func TestGangRoundsOnOneProcessor(t *testing.T) {
	const noPreempt = "asyncpreemptoff=1"
	if !strings.Contains(os.Getenv("GODEBUG"), noPreempt) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestGangRoundsOnOneProcessor$", "-test.timeout=2m")
		cmd.Env = append(os.Environ(), "GODEBUG="+noPreempt)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("rounds on one processor without preemption: %v\n%s", err, out)
		}
		return
	}
	runtime.GOMAXPROCS(1)
	g := NewGang(4)
	defer g.Close()
	const rounds = 300
	var total atomic.Int64
	for round := 0; round < rounds; round++ {
		g.Round(64, func(lo, hi int) {
			total.Add(int64(hi - lo))
			runtime.Gosched() // hand the P to a worker mid-round
		})
	}
	if got := total.Load(); got != rounds*64 {
		t.Fatalf("%d rounds of 64 indices covered %d, want %d", rounds, got, rounds*64)
	}
}
