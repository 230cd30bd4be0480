package place

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

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
// rows and every stripe holds a few hundred cells.
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

// TestParallelPlaceWorkerInvariant is the acceptance-criteria table
// test: the territory annealer must be bit-identical at every worker
// count, across presets and partition counts. The
// Workers=1 run is the reference — it runs the same lanes on the same
// streams, one after the other on the caller's goroutine.
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
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := tc.opts
			opts.Moves = 40 * (tc.spec.NumComb + tc.spec.NumFFs)
			opts.Workers = 1
			ref := placeOutcomeOf(tc.spec, opts)
			if ref.res.MovesConflicted != 0 || ref.res.BatchFinal != 0 {
				t.Fatalf("retired counters set: %+v", ref.res)
			}
			for _, w := range []int{2, 4, 8} {
				opts.Workers = w
				if got := placeOutcomeOf(tc.spec, opts); !got.equal(ref) {
					t.Fatalf("workers=%d diverged from workers=1:\n ref %+v / %d pins scanned\n got %+v / %d",
						w, ref.res, ref.tally, got.res, got.tally)
				}
			}
		})
	}
	// Not parallel: runs before the cases above resume, alone in the
	// process, so the processor count it sets is the one they all see.
	t.Run("gomaxprocs1", func(t *testing.T) {
		spec := netlist.Artificial(8)
		opts := Options{Seed: 16, Moves: 40 * (spec.NumComb + spec.NumFFs), Partitions: 2, Workers: 4}
		ref := placeOutcomeOf(spec, opts)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for _, w := range []int{1, 2, 4} {
			opts.Workers = w
			if got := placeOutcomeOf(spec, opts); !got.equal(ref) {
				t.Fatalf("workers=%d on one processor diverged:\n ref %+v\n got %+v", w, ref.res, got.res)
			}
		}
	})
}

// engineVsSerial is the one bound on the territory engine's HPWL against the
// serial engine at the same budget; scripts/goldenfence (rule 4) and
// check.sh bench's place gate hold the same number. Until the proposal
// window a stripe was the tree's only range limit and the lanes placed a few
// percent shorter than the serial engine; now both engines limit the range,
// the serial one without stale neighbours or stripe walls, and the lanes
// place 1.00-1.09x longer (DESIGN.md "Parallel place & route kernels").
const engineVsSerial = 1.10

// TestParallelPlaceQuality: the territory engine explores a different
// (equally valid) trajectory than the serial engine and is held to
// engineVsSerial times its HPWL, flat, on the smallest design (stripes a
// handful of columns wide) and on mid3k.
func TestParallelPlaceQuality(t *testing.T) {
	for _, spec := range []netlist.Spec{netlist.Tiny(21), mid3k} {
		n1 := netlist.Generate(lib(), spec)
		serial := Place(n1, Options{Seed: 3})
		n2 := netlist.Generate(lib(), spec)
		par := Place(n2, Options{Seed: 3, Workers: 4})
		t.Logf("%s: serial HPWL %.0f, territory %.0f (%.3fx)", spec.Name, serial.HPWLUm, par.HPWLUm, par.HPWLUm/serial.HPWLUm)
		if par.HPWLUm >= par.InitialHPWLUm {
			t.Fatalf("%s: parallel SA did not improve HPWL: %v -> %v", spec.Name, par.InitialHPWLUm, par.HPWLUm)
		}
		if par.HPWLUm > serial.HPWLUm*engineVsSerial {
			t.Errorf("%s: parallel HPWL %v more than %.2fx the serial engine's %v", spec.Name, par.HPWLUm, engineVsSerial, serial.HPWLUm)
		}
		if budget := 120 * n2.NumCells() / stepsPerProposal; par.MovesTried != budget {
			t.Errorf("%s: tried %d proposals, the budget holds %d", spec.Name, par.MovesTried, budget)
		}
	}
}

// TestParallelPlaceRandomizedDifferential fuzzes the invariant: random
// spec, moves, partitioning — Workers=1 and a random Workers in 2..8
// must agree bit-for-bit on every output.
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
			Workers:    1,
		}
		ref := placeOutcomeOf(spec, opts)
		w := 2 + rng.Intn(7)
		opts.Workers = w
		if got := placeOutcomeOf(spec, opts); !got.equal(ref) {
			t.Fatalf("trial %d (spec seed %d, opts %+v): parallel result diverged from workers=1:\n ref %+v\n got %+v",
				trial, spec.Seed, opts, ref.res, got.res)
		}
	}
}
