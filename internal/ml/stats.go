// Package ml is a small, dependency-free machine-learning toolkit: linear
// and ridge regression, feature scaling, and the distribution statistics
// (Gaussian fit, Jarque-Bera normality test) used by the
// implementation-noise study.
//
// The paper's central theme is that "machine learning techniques must
// pervade EDA tools"; this package is the reproduction's shared model
// substrate, consumed by internal/correlate (analysis correlation),
// internal/noise (Fig. 3), and internal/metrics (the data miner).
package ml

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Skewness returns the sample skewness (0 for n < 3 or zero variance).
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Kurtosis returns the sample excess kurtosis (0 for n < 4 or zero
// variance).
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return 0
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4/(m2*m2) - 3
}

// Quantile returns the q-quantile (0<=q<=1) by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Gaussian is a fitted normal distribution.
type Gaussian struct {
	Mu, Sigma float64
}

// FitGaussian estimates a normal distribution from samples.
func FitGaussian(xs []float64) Gaussian {
	return Gaussian{Mu: Mean(xs), Sigma: StdDev(xs)}
}

// CDF evaluates the normal cumulative distribution.
func (g Gaussian) CDF(x float64) float64 {
	if g.Sigma <= 0 {
		if x < g.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((x-g.Mu)/(g.Sigma*math.Sqrt2)))
}

// JarqueBera computes the Jarque-Bera normality statistic and its
// asymptotic p-value (chi-square, 2 degrees of freedom). Small statistics
// / large p-values are consistent with Gaussian data — the check behind
// the paper's Fig. 3 (right): "noise is essentially Gaussian".
func JarqueBera(xs []float64) (stat, pValue float64) {
	n := float64(len(xs))
	if n < 8 {
		return 0, 1
	}
	s := Skewness(xs)
	k := Kurtosis(xs)
	stat = n / 6 * (s*s + k*k/4)
	// chi2(2) survival function: exp(-x/2).
	pValue = math.Exp(-stat / 2)
	return stat, pValue
}

// Histogram bins xs into `bins` equal-width buckets between min and max.
type Histogram struct {
	Min, Max float64
	Width    float64
	Counts   []int
}

// NewHistogram builds a histogram (bins >= 1; empty input yields zeroed
// histogram).
func NewHistogram(xs []float64, bins int) Histogram {
	if bins < 1 {
		bins = 1
	}
	h := Histogram{Counts: make([]int, bins)}
	if len(xs) == 0 {
		return h
	}
	h.Min, h.Max = xs[0], xs[0]
	for _, x := range xs {
		h.Min = math.Min(h.Min, x)
		h.Max = math.Max(h.Max, x)
	}
	if h.Max == h.Min {
		h.Max = h.Min + 1
	}
	h.Width = (h.Max - h.Min) / float64(bins)
	for _, x := range xs {
		b := int((x - h.Min) / h.Width)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		h.Counts[b]++
	}
	return h
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples (0 if degenerate).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("ml: singular system")

// SolveLinear solves A x = b by Gaussian elimination with partial
// pivoting. A is row-major n x n and is not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[p] = m[p], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}
