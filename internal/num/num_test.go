package num

import (
	"math/rand"
	"testing"
)

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp(5,0,3) = %d", got)
	}
	if got := Clamp(-2, 0, 3); got != 0 {
		t.Errorf("Clamp(-2,0,3) = %d", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp(2,0,3) = %d", got)
	}
	if got := Clamp(1.5, 0.0, 1.0); got != 1.0 {
		t.Errorf("Clamp(1.5,0,1) = %v", got)
	}
}

func TestMixDecorrelatesStreams(t *testing.T) {
	seen := map[int64]uint64{}
	for stream := uint64(0); stream < 1000; stream++ {
		v := Mix(42, stream)
		if prev, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d collide", prev, stream)
		}
		seen[v] = stream
	}
	if Mix(1, 0) == Mix(2, 0) {
		t.Error("different seeds should give different streams")
	}
	if Mix(1, 0) != Mix(1, 0) {
		t.Error("Mix must be deterministic")
	}
}

var _ rand.Source64 = (*SplitMix)(nil)

func TestSplitMixDeterministicStream(t *testing.T) {
	a, b := rand.New(NewSplitMix(99)), rand.New(NewSplitMix(99))
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed streams diverge at draw %d", i)
		}
	}
	c := rand.New(NewSplitMix(100))
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == c.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent-seed streams agree on %d of 100 draws", same)
	}
	// Coin flips should be roughly balanced — splitmix64 is a proper
	// mixer, not a counter.
	s, heads := NewSplitMix(7), 0
	for i := 0; i < 10000; i++ {
		if s.Uint64()&1 == 1 {
			heads++
		}
	}
	if heads < 4500 || heads > 5500 {
		t.Errorf("low bit badly biased: %d/10000 heads", heads)
	}
}

// TestSplitMixBoundedDraws: Intn stays in range at every size class — one
// value, tiny, past 31 and past 32 bits — is a pure function of the seed,
// and is balanced in its mean and in its low bit; Float64 stays in [0, 1)
// with mean one half.
func TestSplitMixBoundedDraws(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1 << 31, 1<<32 + 1} {
		a, b := NewSplitMix(5), NewSplitMix(5)
		var sum float64
		odd, top := 0, 0
		const draws = 20000
		for i := 0; i < draws; i++ {
			v := a.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
			if w := b.Intn(n); w != v {
				t.Fatalf("Intn(%d): same-seed streams drew %d and %d at draw %d", n, v, w, i)
			}
			sum += float64(v)
			odd += v & 1
			top = max(top, v)
		}
		if n == 1 {
			continue
		}
		if mean, want := sum/draws, float64(n-1)/2; mean < 0.97*want || mean > 1.03*want {
			t.Errorf("Intn(%d): mean %v, want about %v", n, mean, want)
		}
		if want := draws * (n / 2) / n; odd < want*95/100 || odd > want*105/100 {
			t.Errorf("Intn(%d): %d of %d draws odd, want about %d", n, odd, draws, want)
		}
		if n <= 3 && top != n-1 || top < n/2 {
			t.Errorf("Intn(%d): largest draw %d", n, top)
		}
	}
	s := NewSplitMix(6)
	var sum float64
	for i := 0; i < 20000; i++ {
		u := s.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64() = %v", u)
		}
		sum += u
	}
	if mean := sum / 20000; mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64: mean %v", mean)
	}
}
