package place

import (
	"context"
	"math"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

func tiny(seed int64) *netlist.Netlist {
	return netlist.Generate(cellib.Default14nm(), netlist.Tiny(seed))
}

func TestPlaceImprovesHPWL(t *testing.T) {
	n := tiny(1)
	res := Place(n, Options{Seed: 1})
	if res.HPWLUm >= res.InitialHPWLUm {
		t.Fatalf("SA did not improve HPWL: %v -> %v", res.InitialHPWLUm, res.HPWLUm)
	}
	if res.HPWLUm != n.TotalHPWL() {
		t.Fatalf("reported HPWL %v != netlist HPWL %v", res.HPWLUm, n.TotalHPWL())
	}
	if res.MovesAccepted == 0 || res.MovesTried == 0 {
		t.Fatal("no moves recorded")
	}
}

func TestPlaceKeepsCellsOnDie(t *testing.T) {
	n := tiny(2)
	res := Place(n, Options{Seed: 2})
	for i := range n.Insts {
		if n.Insts[i].X < 0 || n.Insts[i].X > res.Width || n.Insts[i].Y < 0 || n.Insts[i].Y > res.Height {
			t.Fatalf("inst %d at (%v,%v) outside die %vx%v", i, n.Insts[i].X, n.Insts[i].Y, res.Width, res.Height)
		}
	}
}

func TestPlaceNoOverlap(t *testing.T) {
	n := tiny(3)
	Place(n, Options{Seed: 3})
	seen := make(map[[2]int]int)
	for i := range n.Insts {
		key := [2]int{int(n.Insts[i].X * 100), int(n.Insts[i].Y * 100)}
		if prev, ok := seen[key]; ok {
			t.Fatalf("inst %d and %d share slot (%v,%v)", prev, i, n.Insts[i].X, n.Insts[i].Y)
		}
		seen[key] = i
	}
}

func TestPlaceDeterministic(t *testing.T) {
	a, b := tiny(4), tiny(4)
	ra := Place(a, Options{Seed: 9})
	rb := Place(b, Options{Seed: 9})
	if ra.HPWLUm != rb.HPWLUm {
		t.Fatalf("same seed, different HPWL: %v vs %v", ra.HPWLUm, rb.HPWLUm)
	}
	for i := range a.Insts {
		if a.Insts[i].X != b.Insts[i].X || a.Insts[i].Y != b.Insts[i].Y {
			t.Fatalf("same seed, inst %d at different locations", i)
		}
	}
}

func TestSeedsGiveDifferentBasins(t *testing.T) {
	n := tiny(5)
	r1 := Place(n, Options{Seed: 1})
	s1 := Snapshot(n)
	r2 := Place(n, Options{Seed: 2})
	s2 := Snapshot(n)
	if r1.HPWLUm == r2.HPWLUm && Distance(s1, s2) == 0 {
		t.Fatal("different seeds converged to identical placement")
	}
	if Distance(s1, s2) <= 0 {
		t.Fatal("expected nonzero placement distance between seeds")
	}
}

func TestMoreMovesNotWorse(t *testing.T) {
	n := tiny(6)
	short := Place(n, Options{Seed: 7, Moves: 2000})
	long := Place(n, Options{Seed: 7, Moves: 60000})
	if long.HPWLUm > short.HPWLUm*1.1 {
		t.Errorf("30x more moves much worse: %v vs %v", long.HPWLUm, short.HPWLUm)
	}
}

func TestPartitionedPlacement(t *testing.T) {
	n := tiny(7)
	flat := Place(n, Options{Seed: 5})
	n2 := tiny(7)
	part := Place(n2, Options{Seed: 5, Partitions: 2})
	if part.HPWLUm <= 0 {
		t.Fatal("partitioned placement produced no result")
	}
	// Partitioning restricts moves, so runtime proxy (cost evals per
	// tried move budget) should not explode and result should be within
	// a reasonable factor of flat.
	if part.HPWLUm > flat.HPWLUm*2 {
		t.Errorf("partitioned HPWL %v more than 2x flat %v", part.HPWLUm, flat.HPWLUm)
	}
}

func TestDistanceProperties(t *testing.T) {
	n := tiny(9)
	s1 := Snapshot(n)
	if Distance(s1, s1) != 0 {
		t.Error("self distance must be 0")
	}
	s2 := append([]float64(nil), s1...)
	s2[0] += 10
	if got := Distance(s1, s2); math.Abs(got-10/float64(n.NumCells())) > 1e-9 {
		t.Errorf("distance = %v", got)
	}
	if Distance(s1, s1[:2]) != 0 {
		t.Error("mismatched lengths should return 0")
	}
}

func TestRuntimeProxyGrowsWithMoves(t *testing.T) {
	n := tiny(10)
	a := Place(n, Options{Seed: 1, Moves: 2000})
	b := Place(n, Options{Seed: 1, Moves: 20000})
	if b.RuntimeProxy <= a.RuntimeProxy {
		t.Errorf("runtime proxy should grow with moves: %d vs %d", a.RuntimeProxy, b.RuntimeProxy)
	}
}

func BenchmarkPlaceTiny(b *testing.B) {
	n := tiny(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Place(n, Options{Seed: int64(i)})
	}
}

// TestPlaceZeroCells: a netlist without instances used to panic in
// schedule (rng.Intn(0)); the placer must return a zero-move result
// with the die set, flat, partitioned and with the deprecated Workers
// field set ("speculative").
func TestPlaceZeroCells(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{Seed: 1}},
		{"speculative", Options{Seed: 1, Workers: 2}},
		{"serial/partitioned", Options{Seed: 1, Partitions: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := &netlist.Netlist{Lib: cellib.Default14nm(), ClockNet: -1}
			res, ok := PlaceCtx(context.Background(), n, tc.opts)
			if !ok {
				t.Fatal("zero-cell placement reported as aborted")
			}
			if res.Width <= 0 || res.Height <= 0 {
				t.Fatalf("die not set: %vx%v", res.Width, res.Height)
			}
			res.Width, res.Height = 0, 0
			if res != (Result{}) {
				t.Fatalf("zero-cell placement did work: %+v", res)
			}
		})
	}
}
