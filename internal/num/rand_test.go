package num

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestRandMatchesMathRand: a Rand yields math/rand.NewSource's stream for
// the same seed, draw for draw, over 2 000 draws (three times around the
// register) from each of 312 seeds: the edge cases of math/rand's seed
// normalisation (0, negatives, multiples of 2^31−1, math.MinInt64 and
// math.MaxInt64) and 300 seeds drawn at random. Intn, NormFloat64 and
// Perm, which read the source through rand.Rand, agree too.
func TestRandMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, -3 * m, m - 1, m + 1, 89482311, math.MinInt64, math.MaxInt64}
	pick := rand.New(rand.NewSource(5))
	for range 300 {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	for _, seed := range seeds {
		want, got := rand.NewSource(seed).(rand.Source64), NewRand(seed)
		for i := range 2000 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d, draw %d: %#x, math/rand %#x", seed, i, g, w)
			}
		}
		want.Seed(seed + 7)
		got.Seed(seed + 7)
		for i := range 700 {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d reseeded, Int63 %d: %d, math/rand %d", seed+7, i, g, w)
			}
		}
		wr, gr := rand.New(rand.NewSource(seed)), rand.New(NewRand(seed))
		for i := range 200 {
			if w, g := wr.Intn(1000+i), gr.Intn(1000+i); w != g {
				t.Fatalf("seed %d, Intn %d: %d, math/rand %d", seed, i, g, w)
			}
			if w, g := wr.NormFloat64(), gr.NormFloat64(); w != g {
				t.Fatalf("seed %d, NormFloat64 %d: %v, math/rand %v", seed, i, g, w)
			}
		}
		if w, g := wr.Perm(50), gr.Perm(50); !slices.Equal(w, g) {
			t.Fatalf("seed %d: Perm %v, math/rand %v", seed, g, w)
		}
	}
}

// BenchmarkNewRand seeds a source and takes the five draws a bandit pull
// does; math/rand seeds its whole register first.
func BenchmarkNewRand(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  func(int64) rand.Source
	}{{"lazy", func(s int64) rand.Source { return NewRand(s) }}, {"math-rand", rand.NewSource}} {
		b.Run(bc.name, func(b *testing.B) {
			var sum int64
			for i := range b.N {
				src := bc.src(int64(i))
				for range 5 {
					sum += src.Int63()
				}
			}
			_ = sum
		})
	}
}
