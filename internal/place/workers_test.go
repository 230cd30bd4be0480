package place

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

// The tests in this file and in territory_test.go are named for the
// territory-parallel annealer, which is gone. Options.Workers, which
// selected it, is now ignored; they hold that it is, and the serial
// engine's behaviour on the shapes they were written for.

func lib() *cellib.Library { return cellib.Default14nm() }

// coords flattens the placement into a comparable snapshot.
func coords(n *netlist.Netlist) []float64 { return Snapshot(n) }

func sameCoords(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mid3k is the larger golden design (golden_test.go): nets span many
// rows and a partition region holds a few hundred cells.
var mid3k = netlist.Spec{Name: "mid3k", Seed: 1, NumComb: 2700, NumFFs: 300, Levels: 14, Locality: 0.7, NumPIs: 40, ClockPeriodPs: 1400}

// placeOutcome is everything an anneal produces: the Result, the private
// pin tally, the placement and the netlist fingerprint.
type placeOutcome struct {
	res    Result
	tally  int
	coords []float64
	print  uint64
}

func placeOutcomeOf(spec netlist.Spec, opts Options) placeOutcome {
	n := netlist.Generate(lib(), spec)
	res, tally := placeTally(n, opts)
	return placeOutcome{res, tally, coords(n), n.Fingerprint()}
}

func (a placeOutcome) equal(b placeOutcome) bool {
	return a.res == b.res && a.tally == b.tally && a.print == b.print && sameCoords(a.coords, b.coords)
}

// TestParallelPlaceWorkerInvariant: at every Workers value Place matches
// Workers 0 bit for bit — Result, pin tally, placement — across presets
// and partition counts, and at one processor too.
func TestParallelPlaceWorkerInvariant(t *testing.T) {
	cases := []struct {
		name string
		spec netlist.Spec
		opts Options
	}{
		{"tiny/flat", netlist.Tiny(3), Options{Seed: 11}},
		{"tiny/partitioned", netlist.Tiny(4), Options{Seed: 12, Partitions: 2}},
		{"tiny/partitioned3", netlist.Tiny(5), Options{Seed: 13, Partitions: 3}},
		{"artificial/flat", netlist.Artificial(6), Options{Seed: 14}},
		{"artificial/partitioned", netlist.Artificial(7), Options{Seed: 15, Partitions: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := tc.opts
			opts.Moves = 40 * (tc.spec.NumComb + tc.spec.NumFFs)
			ref := placeOutcomeOf(tc.spec, opts)
			if ref.res.MovesConflicted != 0 || ref.res.BatchFinal != 0 {
				t.Fatalf("retired counters set: %+v", ref.res)
			}
			for _, w := range []int{1, 2, 8} {
				opts.Workers = w
				if got := placeOutcomeOf(tc.spec, opts); !got.equal(ref) {
					t.Fatalf("Workers %d diverged from Workers 0:\n ref %+v / %d pins scanned\n got %+v / %d",
						w, ref.res, ref.tally, got.res, got.tally)
				}
			}
		})
	}
	// Not parallel: runs before the cases above resume, alone in the
	// process, so the processor count it sets is the one they all see.
	t.Run("gomaxprocs1", func(t *testing.T) {
		spec := netlist.Artificial(8)
		opts := Options{Seed: 16, Moves: 40 * (spec.NumComb + spec.NumFFs), Partitions: 2}
		ref := placeOutcomeOf(spec, opts)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		opts.Workers = 4
		if got := placeOutcomeOf(spec, opts); !got.equal(ref) {
			t.Fatalf("one processor, Workers 4 diverged:\n ref %+v\n got %+v", ref.res, got.res)
		}
	})
}

// TestParallelPlaceQuality: on the smallest design and on mid3k, at the
// default budget, the anneal tries exactly the budget's proposals and
// leaves the placement shorter than the global step handed it.
func TestParallelPlaceQuality(t *testing.T) {
	for _, spec := range []netlist.Spec{netlist.Tiny(21), mid3k} {
		n := netlist.Generate(lib(), spec)
		p, rng := newPlacer(t.Context(), n, Options{Seed: 3})
		applyCoords(n, p.g)
		global := n.TotalHPWL()
		if p.res.InitialHPWLUm <= global {
			t.Fatalf("%s: global step did not shorten the scatter: %v -> %v", spec.Name, p.res.InitialHPWLUm, global)
		}
		p.anneal(rng)
		res := p.finish()
		t.Logf("%s: scatter %.0f, global step %.0f, anneal %.0f", spec.Name, res.InitialHPWLUm, global, res.HPWLUm)
		if res.HPWLUm >= global {
			t.Errorf("%s: the anneal did not shorten the global placement: %v -> %v", spec.Name, global, res.HPWLUm)
		}
		if budget := 120 * n.NumCells() / stepsPerProposal; res.MovesTried != budget {
			t.Errorf("%s: tried %d proposals, the budget holds %d", spec.Name, res.MovesTried, budget)
		}
	}
}

// TestParallelPlaceRandomizedDifferential fuzzes the invariance: random
// spec, moves, partitioning — Workers 0 and a random Workers in 1..8 must
// agree bit for bit on every output.
func TestParallelPlaceRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		spec := netlist.Spec{
			Name: "fuzz", Seed: rng.Int63n(1 << 20),
			NumComb: 60 + rng.Intn(120), NumFFs: 8 + rng.Intn(16),
			Levels: 4 + rng.Intn(6), Locality: 0.4 + 0.5*rng.Float64(),
			NumPIs: 4 + rng.Intn(8), ClockPeriodPs: 1500,
		}
		opts := Options{
			Seed:       rng.Int63n(1 << 20),
			Moves:      2000 + rng.Intn(4000),
			Partitions: rng.Intn(4),
		}
		ref := placeOutcomeOf(spec, opts)
		opts.Workers = 1 + rng.Intn(8)
		if got := placeOutcomeOf(spec, opts); !got.equal(ref) {
			t.Fatalf("trial %d (spec seed %d, opts %+v): result diverged from Workers 0:\n ref %+v\n got %+v",
				trial, spec.Seed, opts, ref.res, got.res)
		}
	}
}
