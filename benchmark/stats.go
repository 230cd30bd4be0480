package main

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

// summary is the five-number summary of one metric's repetitions.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize reads the quartiles by linear interpolation between order
// statistics, so a single sample is its own median and quartiles.
func summarize(xs []float64) summary {
	q := func(p float64) float64 { return ml.Quantile(xs, p) }
	return summary{N: len(xs), Min: q(0), Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: q(1)}
}

func median(xs []float64) float64 { return ml.Quantile(xs, 0.5) }

// IQR is the distance between the quartiles: the run-to-run spread.
func (s summary) IQR() float64 { return s.Q3 - s.Q1 }

// minSamples is the fewest repetitions a side needs before its spread
// means anything: the quartiles of fewer are the samples themselves (one
// sample has an interquartile range of 0, so any difference would clear
// it).
const minSamples = 4

// effect is the change of other's median against base's, in percent of
// base. It is resolved only when both sides have minSamples repetitions
// and the medians differ by more than the two spreads together, which
// also means the interquartile ranges cannot overlap. Anything less is
// noise and must not be read as a sign: an unresolved effect carries no
// number at all, Pct is 0.
type effect struct {
	Pct      float64
	Resolved bool
}

func compare(base, other summary) effect {
	if base.N < minSamples || other.N < minSamples || base.Median == 0 {
		return effect{}
	}
	diff := other.Median - base.Median
	if math.Abs(diff) <= base.IQR()+other.IQR() {
		return effect{}
	}
	return effect{Pct: 100 * diff / base.Median, Resolved: true}
}

// String prints a signed percentage only for a resolved effect.
func (e effect) String() string {
	if !e.Resolved {
		return "unresolved"
	}
	return fmt.Sprintf("%+.1f %%", e.Pct)
}
