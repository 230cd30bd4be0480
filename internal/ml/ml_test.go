package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("variance = %v", v)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %v", q)
	}
}

func TestGaussianFitAndCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 10 + 2*rng.NormFloat64()
	}
	g := FitGaussian(xs)
	if math.Abs(g.Mu-10) > 0.15 || math.Abs(g.Sigma-2) > 0.15 {
		t.Errorf("fit %+v, want mu=10 sigma=2", g)
	}
	if c := g.CDF(g.Mu); math.Abs(c-0.5) > 1e-12 {
		t.Errorf("CDF(mu) = %v", c)
	}
}

func TestJarqueBera(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	normal := make([]float64, 2000)
	for i := range normal {
		normal[i] = rng.NormFloat64()
	}
	_, pN := JarqueBera(normal)
	if pN < 0.01 {
		t.Errorf("normal data rejected: p = %v", pN)
	}
	skewed := make([]float64, 2000)
	for i := range skewed {
		skewed[i] = math.Exp(rng.NormFloat64())
	}
	statS, pS := JarqueBera(skewed)
	if pS > 0.01 {
		t.Errorf("lognormal data accepted: stat=%v p=%v", statS, pS)
	}
	if _, p := JarqueBera([]float64{1, 2}); p != 1 {
		t.Error("tiny sample should return p=1")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Errorf("histogram lost samples: %v", h.Counts)
	}
	for _, c := range h.Counts {
		if c != 2 {
			t.Errorf("uniform data unevenly binned: %v", h.Counts)
		}
	}
	empty := NewHistogram(nil, 3)
	if len(empty.Counts) != 3 {
		t.Error("empty histogram should keep bin count")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	if Pearson(xs, xs[:2]) != 0 {
		t.Error("length mismatch should be 0")
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("x = %v, want [1 3]", x)
	}
	if _, err := SolveLinear([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); err == nil {
		t.Error("singular system not detected")
	}
}

func TestLinearRegressionRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{a, b})
		y = append(y, 3*a-2*b+7+0.01*rng.NormFloat64())
	}
	m, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-3) > 0.02 || math.Abs(m.Coef[1]+2) > 0.02 || math.Abs(m.Intercept-7) > 0.05 {
		t.Errorf("fit %v intercept %v", m.Coef, m.Intercept)
	}
	pred := m.PredictAll(x)
	if r2 := R2(pred, y); r2 < 0.999 {
		t.Errorf("R2 = %v", r2)
	}
}

func TestRidgeShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		a := rng.Float64()
		x = append(x, []float64{a})
		y = append(y, 5*a+rng.NormFloat64())
	}
	ols, _ := FitLinear(x, y)
	heavy, _ := FitRidge(x, y, 1e6)
	if math.Abs(heavy.Coef[0]) >= math.Abs(ols.Coef[0]) {
		t.Errorf("heavy ridge should shrink: |%v| vs |%v|", heavy.Coef[0], ols.Coef[0])
	}
}

func TestRidgeHandlesCollinear(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		a := float64(i)
		x = append(x, []float64{a, 2 * a}) // perfectly collinear
		y = append(y, a)
	}
	m, err := FitRidge(x, y, 0)
	if err != nil {
		t.Fatalf("collinear fallback failed: %v", err)
	}
	if MAE(m.PredictAll(x), y) > 1 {
		t.Error("collinear fit useless")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitLinear(nil, nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := FitLinear([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Error("ragged fit should error")
	}
}

func TestScaler(t *testing.T) {
	x := [][]float64{{1, 100}, {2, 200}, {3, 300}}
	s := FitScaler(x)
	tx := s.Transform(x)
	for j := 0; j < 2; j++ {
		col := []float64{tx[0][j], tx[1][j], tx[2][j]}
		if math.Abs(Mean(col)) > 1e-9 {
			t.Errorf("col %d mean %v", j, Mean(col))
		}
		if math.Abs(StdDev(col)-1) > 1e-9 {
			t.Errorf("col %d std %v", j, StdDev(col))
		}
	}
	// Constant column must not divide by zero.
	c := FitScaler([][]float64{{5}, {5}})
	if got := c.Transform([][]float64{{5}})[0][0]; got != 0 {
		t.Errorf("constant col transform = %v", got)
	}
}

func TestSplitPartitions(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, float64(i))
	}
	xtr, ytr, xte, yte := Split(x, y, 0.25, 1)
	if len(xte) != 25 || len(xtr) != 75 {
		t.Fatalf("split sizes %d/%d", len(xtr), len(xte))
	}
	if len(ytr) != 75 || len(yte) != 25 {
		t.Fatal("target sizes wrong")
	}
	seen := make(map[float64]bool)
	for _, v := range append(append([]float64{}, ytr...), yte...) {
		if seen[v] {
			t.Fatal("duplicate sample in split")
		}
		seen[v] = true
	}
}

func TestErrorMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 4}
	if m := MAE(pred, truth); math.Abs(m-1.0/3) > 1e-12 {
		t.Errorf("MAE = %v", m)
	}
	if r2 := R2(truth, truth); r2 != 1 {
		t.Errorf("perfect R2 = %v", r2)
	}
}

func TestQuantileWithinRange(t *testing.T) {
	f := func(xs []float64, q float64) bool {
		if len(xs) == 0 {
			return Quantile(xs, q) == 0
		}
		q = math.Abs(math.Mod(q, 1))
		v := Quantile(xs, q)
		return v >= Quantile(xs, 0)-1e-9 && v <= Quantile(xs, 1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological float inputs
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
