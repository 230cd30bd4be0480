package ml

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/num"
)

// Ridge is a linear model fit with L2 regularization (lambda = 0 gives
// ordinary least squares).
type Ridge struct {
	Coef      []float64
	Intercept float64
	Lambda    float64
}

// FitRidge fits y ~ X with ridge penalty lambda on the coefficients (the
// intercept is unpenalized). X is row-major, one sample per row.
func FitRidge(x [][]float64, y []float64, lambda float64) (*Ridge, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d samples vs %d targets", len(x), len(y))
	}
	d := len(x[0])
	// Augment with a bias column; normal equations (X'X + λI) w = X'y.
	n := d + 1
	xtx := make([][]float64, n)
	for i := range xtx {
		xtx[i] = make([]float64, n)
	}
	xty := make([]float64, n)
	row := make([]float64, n)
	for s := range x {
		if len(x[s]) != d {
			return nil, fmt.Errorf("ml: ragged sample %d (%d features, want %d)", s, len(x[s]), d)
		}
		copy(row, x[s])
		row[d] = 1
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[s]
		}
	}
	for i := 0; i < d; i++ { // bias unpenalized
		xtx[i][i] += lambda
	}
	w, err := SolveLinear(xtx, xty)
	if err != nil {
		// Fall back to a heavier ridge for collinear inputs.
		for i := 0; i < d; i++ {
			xtx[i][i] += 1e-6 + lambda
		}
		w, err = SolveLinear(xtx, xty)
		if err != nil {
			return nil, err
		}
	}
	return &Ridge{Coef: w[:d], Intercept: w[d], Lambda: lambda}, nil
}

// FitLinear fits ordinary least squares.
func FitLinear(x [][]float64, y []float64) (*Ridge, error) { return FitRidge(x, y, 0) }

// Predict evaluates the model on one sample.
func (r *Ridge) Predict(sample []float64) float64 {
	p := r.Intercept
	for i, c := range r.Coef {
		if i < len(sample) {
			p += c * sample[i]
		}
	}
	return p
}

// PredictAll evaluates the model on many samples.
func (r *Ridge) PredictAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = r.Predict(x[i])
	}
	return out
}

// Scaler standardizes features to zero mean, unit variance.
type Scaler struct {
	Mu, Sigma []float64
}

// FitScaler learns per-feature statistics.
func FitScaler(x [][]float64) *Scaler {
	if len(x) == 0 {
		return &Scaler{}
	}
	d := len(x[0])
	s := &Scaler{Mu: make([]float64, d), Sigma: make([]float64, d)}
	col := make([]float64, len(x))
	for j := 0; j < d; j++ {
		for i := range x {
			col[i] = x[i][j]
		}
		s.Mu[j] = Mean(col)
		s.Sigma[j] = StdDev(col)
		if s.Sigma[j] == 0 {
			s.Sigma[j] = 1
		}
	}
	return s
}

// Transform standardizes samples (returns new slices).
func (s *Scaler) Transform(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(row))
		for j := range row {
			if j < len(s.Mu) {
				r[j] = (row[j] - s.Mu[j]) / s.Sigma[j]
			} else {
				r[j] = row[j]
			}
		}
		out[i] = r
	}
	return out
}

// Errors

// MAE returns the mean absolute error.
func MAE(pred, truth []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred))
}

// R2 returns the coefficient of determination.
func R2(pred, truth []float64) float64 {
	if len(pred) < 2 {
		return 0
	}
	m := Mean(truth)
	var ssRes, ssTot float64
	for i := range pred {
		ssRes += (truth[i] - pred[i]) * (truth[i] - pred[i])
		ssTot += (truth[i] - m) * (truth[i] - m)
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// Split partitions samples into train and test sets with the given test
// fraction, shuffled deterministically by seed.
func Split(x [][]float64, y []float64, testFrac float64, seed int64) (xtr [][]float64, ytr []float64, xte [][]float64, yte []float64) {
	rng := rand.New(num.NewRand(seed))
	idx := rng.Perm(len(x))
	nTest := int(float64(len(x)) * testFrac)
	for i, id := range idx {
		if i < nTest {
			xte = append(xte, x[id])
			yte = append(yte, y[id])
		} else {
			xtr = append(xtr, x[id])
			ytr = append(ytr, y[id])
		}
	}
	return
}
