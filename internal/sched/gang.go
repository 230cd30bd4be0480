package sched

import (
	"sync"
	"sync/atomic"
)

// Gang is a persistent crew of workers for tight data-parallel rounds.
// Unlike Pool — which spawns a goroutine per task and meters licenses —
// a Gang keeps its workers between rounds so that an inner loop can fan
// the same index space out many times (one round per annealing epoch,
// say) without paying a park/unpark round trip each time: on kernels
// where futex wake-ups are expensive (container hypervisors,
// gVisor-style sandboxes) that round trip can cost more than a short
// round's work. Every wait is a bounded spin followed by a block: a
// worker polls the atomic round pointer for spinPolls loads — back-to-
// back rounds arrive well inside that — and then parks until the next
// round is published; the caller polls the completion count as long
// and then blocks on the round's own signal. So no wait holds a
// processor for long against the goroutine it is waiting for, whether
// that is GOMAXPROCS(1) or a host that has stacked the crew's threads on
// one core. The caller's goroutine always joins the round itself, so a
// Gang of one runs entirely inline and adds no synchronization.
type Gang struct {
	workers int
	cur     atomic.Pointer[gangRound]
	stop    atomic.Bool

	// Parked workers wait on wake; parked (atomic, bumped before the
	// worker re-checks cur under mu) tells Round whether to broadcast.
	mu     sync.Mutex
	wake   *sync.Cond
	parked atomic.Int32
}

// gangRound is one barrier's worth of work. Each Round allocates a
// fresh one, so a worker that wakes up holding a stale round can only
// claim from that stale round's exhausted counter — never from the
// next round's.
type gangRound struct {
	f      func(lo, hi int)
	n      int
	chunks int
	size   int
	next   atomic.Int64  // chunk claim counter (work stealing)
	done   atomic.Int64  // chunks completed
	fin    chan struct{} // buffered; whoever completes the last chunk sends
}

// spinPolls bounds both busy waits, in atomic loads: ~80 us. It has to
// outlast the stragglers of a short round — a worker that parks costs
// the next round a futex wake, and a caller that blocks pays one itself —
// and still be small against a round, because when the host has put the
// straggler's thread on the waiter's core every poll is taken from the
// work being waited for. On the placer's territory epochs (soc-proxy, two
// workers, ~170 rounds of 0.1–3 ms): 1<<14 ran 122–125 ms with outliers
// past 140, 1<<17 118.5 ms, a caller that never blocks 116 ms.
const spinPolls = 1 << 17

// NewGang starts a crew of the given size (clamped to >= 1). Close must
// be called to release the workers.
func NewGang(workers int) *Gang {
	if workers < 1 {
		workers = 1
	}
	g := &Gang{workers: workers}
	g.wake = sync.NewCond(&g.mu)
	for w := 1; w < workers; w++ {
		go g.work()
	}
	return g
}

// Workers returns the crew size.
func (g *Gang) Workers() int { return g.workers }

func (g *Gang) work() {
	var last *gangRound
	for idle := 0; !g.stop.Load(); idle++ {
		if r := g.cur.Load(); r != last {
			last, idle = r, 0
			r.run()
		} else if idle >= spinPolls {
			g.parked.Add(1)
			g.mu.Lock()
			for g.cur.Load() == last && !g.stop.Load() {
				g.wake.Wait()
			}
			g.mu.Unlock()
			g.parked.Add(-1)
		}
	}
}

// rouse wakes the parked workers, if any. The caller has already stored
// what they are waiting for; a worker that has not yet bumped parked
// will see it when it re-checks under mu.
func (g *Gang) rouse() {
	if g.parked.Load() > 0 {
		g.mu.Lock()
		g.wake.Broadcast()
		g.mu.Unlock()
	}
}

// run claims and executes chunks until the round is drained. Chunks are
// claimed through the round's own atomic counter, so a late worker
// simply steals whatever is left — including nothing.
func (r *gangRound) run() {
	for {
		c := int(r.next.Add(1) - 1)
		if c >= r.chunks {
			return
		}
		lo := c * r.size
		if hi := min(lo+r.size, r.n); lo < hi {
			r.f(lo, hi)
		}
		if r.done.Add(1) == int64(r.chunks) {
			r.fin <- struct{}{}
		}
	}
}

// Round splits [0,n) into contiguous chunks and runs f(lo, hi) on each
// concurrently, returning only when every chunk has finished (a full
// barrier). Chunks are finer than the worker count so the crew can
// steal around stragglers. f must confine its writes to per-index or
// per-chunk state; reads of shared state are safe because the caller
// mutates nothing until Round returns. Round must not be called
// concurrently with itself.
func (g *Gang) Round(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if g.workers == 1 {
		f(0, n)
		return
	}
	chunks := min(4*g.workers, n)
	r := &gangRound{f: f, n: n, chunks: chunks, size: (n + chunks - 1) / chunks, fin: make(chan struct{}, 1)}
	g.cur.Store(r)
	g.rouse()
	r.run()
	for i := 0; r.done.Load() != int64(chunks); i++ {
		if i == spinPolls {
			<-r.fin
			return
		}
	}
}

// Close releases the workers. The Gang must not be used afterwards.
func (g *Gang) Close() {
	g.stop.Store(true)
	g.rouse()
}
