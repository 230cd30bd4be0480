package place

import (
	"math/rand"
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

// TestParallelPlaceWorkerInvariant is the acceptance-criteria table
// test: the speculative annealer must be bit-identical at every worker
// count, across presets, partition counts and the resample flag. The
// Workers=1 run is the reference — it executes the exact same
// batch/commit protocol with zero concurrency.
func TestParallelPlaceWorkerInvariant(t *testing.T) {
	cases := []struct {
		name string
		spec netlist.Spec
		opts Options
	}{
		{"tiny/flat", netlist.Tiny(3), Options{Seed: 11}},
		{"tiny/partitioned", netlist.Tiny(4), Options{Seed: 12, Partitions: 2}},
		{"tiny/resample", netlist.Tiny(5), Options{Seed: 13, Partitions: 2, ResampleCrossRegion: true}},
		{"artificial/flat", netlist.Artificial(6), Options{Seed: 14}},
		{"artificial/partitioned", netlist.Artificial(7), Options{Seed: 15, Partitions: 3}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := netlist.Generate(lib(), tc.spec)
			opts := tc.opts
			opts.Moves = 40 * base.NumCells()
			opts.Workers = 1
			ref, refTally := placeTally(base, opts)
			refCoords := coords(base)
			for _, w := range []int{2, 4, 8} {
				n := netlist.Generate(lib(), tc.spec)
				o := opts
				o.Workers = w
				got, tally := placeTally(n, o)
				if tally != refTally {
					t.Fatalf("workers=%d: %d proposals decided by the bound, reference %d", w, tally, refTally)
				}
				if got.HPWLUm != ref.HPWLUm {
					t.Fatalf("workers=%d: HPWL %v != reference %v", w, got.HPWLUm, ref.HPWLUm)
				}
				if got.MovesTried != ref.MovesTried || got.MovesAccepted != ref.MovesAccepted ||
					got.MovesConflicted != ref.MovesConflicted || got.MovesResampled != ref.MovesResampled ||
					got.RuntimeProxy != ref.RuntimeProxy || got.BatchFinal != ref.BatchFinal {
					t.Fatalf("workers=%d: counters diverged:\n ref %+v\n got %+v", w, ref, got)
				}
				if !sameCoords(refCoords, coords(n)) {
					t.Fatalf("workers=%d: placement coordinates diverged", w)
				}
			}
		})
	}
}

// TestParallelPlaceQuality: the speculative engine explores a different
// (equally valid) trajectory than the serial engine, but it must still
// be a working annealer — improving HPWL and landing near the serial
// result.
func TestParallelPlaceQuality(t *testing.T) {
	n1 := tiny(21)
	serial := Place(n1, Options{Seed: 3})
	n2 := tiny(21)
	par := Place(n2, Options{Seed: 3, Workers: 4})
	if par.HPWLUm >= par.InitialHPWLUm {
		t.Fatalf("parallel SA did not improve HPWL: %v -> %v", par.InitialHPWLUm, par.HPWLUm)
	}
	if par.HPWLUm > serial.HPWLUm*1.25 {
		t.Errorf("parallel HPWL %v more than 25%% worse than serial %v", par.HPWLUm, serial.HPWLUm)
	}
	if par.MovesTried+par.MovesConflicted > serial.MovesTried {
		t.Errorf("tried+conflicted %d+%d exceeds move budget %d",
			par.MovesTried, par.MovesConflicted, serial.MovesTried)
	}
}

// TestParallelPlaceRandomizedDifferential fuzzes the invariant: random
// spec, moves, batch, partitioning — Workers=1 and a random Workers in
// 2..8 must agree bit-for-bit on every output.
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
			Batch:      32 + rng.Intn(300),
			Partitions: rng.Intn(3),
			Workers:    1,
		}
		if rng.Intn(2) == 1 {
			opts.ResampleCrossRegion = true
		}
		base := netlist.Generate(lib(), spec)
		ref, refTally := placeTally(base, opts)
		refCoords := coords(base)

		w := 2 + rng.Intn(7)
		n := netlist.Generate(lib(), spec)
		o := opts
		o.Workers = w
		got, tally := placeTally(n, o)
		if tally != refTally || got.HPWLUm != ref.HPWLUm || got.MovesTried != ref.MovesTried ||
			got.MovesConflicted != ref.MovesConflicted || got.RuntimeProxy != ref.RuntimeProxy ||
			got.BatchFinal != ref.BatchFinal || !sameCoords(refCoords, coords(n)) {
			t.Fatalf("trial %d (spec seed %d, opts %+v, workers %d): parallel result diverged from workers=1",
				trial, spec.Seed, opts, w)
		}
	}
}

// TestAdaptiveBatchRespondsToConflicts: an oversized batch on a small
// design forces a high conflict fraction, so the adaptive policy must
// shrink the live batch well below the configured maximum; a batch at
// the floor stays pinned there. Either way the result remains a pure
// function of (Seed, Moves, Batch) — the invariance tests above already
// pin that across worker counts.
func TestAdaptiveBatchRespondsToConflicts(t *testing.T) {
	n := tiny(31)
	big := Place(n, Options{Seed: 9, Workers: 4, Batch: 4096, Moves: 40 * n.NumCells()})
	if big.BatchFinal >= 4096 {
		t.Errorf("conflict-heavy anneal never shrank the batch: final %d", big.BatchFinal)
	}
	if big.BatchFinal < adaptBatchFloor {
		t.Errorf("batch adapted below the floor: %d", big.BatchFinal)
	}

	n2 := tiny(31)
	small := Place(n2, Options{Seed: 9, Workers: 4, Batch: 16, Moves: 40 * n2.NumCells()})
	if small.BatchFinal != 16 {
		t.Errorf("batch below the floor must stay clamped at Batch: final %d", small.BatchFinal)
	}

	// The serial engine does not batch at all.
	n3 := tiny(31)
	if serial := Place(n3, Options{Seed: 9}); serial.BatchFinal != 0 {
		t.Errorf("serial engine reported a batch: %d", serial.BatchFinal)
	}
}

// TestResampleCountsCrossRegionMoves: with resampling on, the
// partitioned placer redirects region-crossing proposals instead of
// discarding them, so resampled moves show up in the counter and the
// engine still terminates with the exact move budget spent.
func TestResampleCountsCrossRegionMoves(t *testing.T) {
	n := tiny(30)
	res := Place(n, Options{Seed: 8, Partitions: 2, ResampleCrossRegion: true})
	if res.MovesResampled == 0 {
		t.Fatal("partitioned placement with resampling never redirected a cross-region proposal")
	}
	n2 := tiny(30)
	off := Place(n2, Options{Seed: 8, Partitions: 2})
	if off.MovesResampled != 0 {
		t.Fatalf("resampling off but MovesResampled = %d", off.MovesResampled)
	}
	// Resampling converts burned cooling steps into real attempts.
	if res.MovesTried <= off.MovesTried {
		t.Errorf("resampling should try more moves: %d vs %d", res.MovesTried, off.MovesTried)
	}
}
