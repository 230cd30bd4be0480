// Package hmm implements discrete-emission hidden Markov models
// (scaled forward/backward, Baum-Welch) and a doomed-run
// detector built from a pair of HMMs — the paper's cited alternative to
// the MDP strategy card for modeling tool logfile time series
// ("Tool logfile data can be viewed as time series to which hidden
// Markov models [36] ... may be applied").
package hmm

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/logfile"
	"repro/internal/mdp"
)

// HMM is a discrete-emission hidden Markov model.
type HMM struct {
	NumStates  int
	NumSymbols int
	Pi         []float64   // initial distribution
	A          [][]float64 // transition probabilities [from][to]
	B          [][]float64 // emission probabilities [state][symbol]
}

// New creates an HMM with slightly perturbed uniform parameters (random
// symmetry breaking is required for Baum-Welch to learn anything).
func New(states, symbols int, seed int64) *HMM {
	rng := rand.New(rand.NewSource(seed))
	h := &HMM{NumStates: states, NumSymbols: symbols}
	h.Pi = randDist(rng, states)
	h.A = make([][]float64, states)
	h.B = make([][]float64, states)
	for s := 0; s < states; s++ {
		h.A[s] = randDist(rng, states)
		h.B[s] = randDist(rng, symbols)
	}
	return h
}

func randDist(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	var sum float64
	for i := range d {
		d[i] = 0.2 + rng.Float64()
		sum += d[i]
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}

// ErrEmpty is returned for empty observation sequences.
var ErrEmpty = errors.New("hmm: empty observation sequence")

// Forward runs the scaled forward algorithm, returning per-step scaled
// alphas, the scale factors, and the sequence log-likelihood.
func (h *HMM) Forward(obs []int) (alpha [][]float64, scales []float64, logLik float64, err error) {
	if len(obs) == 0 {
		return nil, nil, 0, ErrEmpty
	}
	T := len(obs)
	alpha = make([][]float64, T)
	scales = make([]float64, T)
	for t := 0; t < T; t++ {
		alpha[t] = make([]float64, h.NumStates)
		var c float64
		for s := 0; s < h.NumStates; s++ {
			var p float64
			if t == 0 {
				p = h.Pi[s]
			} else {
				for q := 0; q < h.NumStates; q++ {
					p += alpha[t-1][q] * h.A[q][s]
				}
			}
			p *= h.emit(s, obs[t])
			alpha[t][s] = p
			c += p
		}
		if c == 0 {
			// Impossible observation under the model: floor to keep
			// the likelihood finite but tiny.
			c = 1e-300
		}
		scales[t] = c
		for s := range alpha[t] {
			alpha[t][s] /= c
		}
		logLik += math.Log(c)
	}
	return alpha, scales, logLik, nil
}

func (h *HMM) emit(state, symbol int) float64 {
	if symbol < 0 || symbol >= h.NumSymbols {
		return 1e-12
	}
	p := h.B[state][symbol]
	if p < 1e-12 {
		return 1e-12
	}
	return p
}

// LogLikelihood returns the log-probability of the observations.
func (h *HMM) LogLikelihood(obs []int) (float64, error) {
	_, _, ll, err := h.Forward(obs)
	return ll, err
}

// BaumWelch fits the model to the observation sequences with up to
// maxIters EM iterations, returning the final total log-likelihood.
func (h *HMM) BaumWelch(seqs [][]int, maxIters int) float64 {
	if maxIters <= 0 {
		maxIters = 30
	}
	var lastLL float64
	for iter := 0; iter < maxIters; iter++ {
		// Accumulators.
		piAcc := make([]float64, h.NumStates)
		aNum := make([][]float64, h.NumStates)
		aDen := make([]float64, h.NumStates)
		bNum := make([][]float64, h.NumStates)
		bDen := make([]float64, h.NumStates)
		for s := 0; s < h.NumStates; s++ {
			aNum[s] = make([]float64, h.NumStates)
			bNum[s] = make([]float64, h.NumSymbols)
		}
		var totalLL float64
		for _, obs := range seqs {
			if len(obs) == 0 {
				continue
			}
			T := len(obs)
			alpha, scales, ll, err := h.Forward(obs)
			if err != nil {
				continue
			}
			totalLL += ll
			// Scaled backward.
			beta := make([][]float64, T)
			beta[T-1] = make([]float64, h.NumStates)
			for s := range beta[T-1] {
				beta[T-1][s] = 1
			}
			for t := T - 2; t >= 0; t-- {
				beta[t] = make([]float64, h.NumStates)
				for s := 0; s < h.NumStates; s++ {
					var p float64
					for q := 0; q < h.NumStates; q++ {
						p += h.A[s][q] * h.emit(q, obs[t+1]) * beta[t+1][q]
					}
					beta[t][s] = p / scales[t+1]
				}
			}
			// Gammas and xis.
			for t := 0; t < T; t++ {
				var norm float64
				gamma := make([]float64, h.NumStates)
				for s := 0; s < h.NumStates; s++ {
					gamma[s] = alpha[t][s] * beta[t][s]
					norm += gamma[s]
				}
				if norm == 0 {
					continue
				}
				for s := 0; s < h.NumStates; s++ {
					g := gamma[s] / norm
					if t == 0 {
						piAcc[s] += g
					}
					bNum[s][clampSym(obs[t], h.NumSymbols)] += g
					bDen[s] += g
					if t < T-1 {
						aDen[s] += g
					}
				}
				if t < T-1 {
					for s := 0; s < h.NumStates; s++ {
						for q := 0; q < h.NumStates; q++ {
							xi := alpha[t][s] * h.A[s][q] * h.emit(q, obs[t+1]) * beta[t+1][q] / scales[t+1]
							aNum[s][q] += xi
						}
					}
				}
			}
		}
		// Re-estimate with small smoothing.
		const eps = 1e-6
		normalizeInto(h.Pi, piAcc, eps)
		for s := 0; s < h.NumStates; s++ {
			if aDen[s] > 0 {
				for q := 0; q < h.NumStates; q++ {
					h.A[s][q] = (aNum[s][q] + eps) / (aDen[s] + eps*float64(h.NumStates))
				}
			}
			if bDen[s] > 0 {
				for k := 0; k < h.NumSymbols; k++ {
					h.B[s][k] = (bNum[s][k] + eps) / (bDen[s] + eps*float64(h.NumSymbols))
				}
			}
		}
		if iter > 0 && math.Abs(totalLL-lastLL) < 1e-6 {
			lastLL = totalLL
			break
		}
		lastLL = totalLL
	}
	return lastLL
}

func clampSym(s, n int) int {
	if s < 0 {
		return 0
	}
	if s >= n {
		return n - 1
	}
	return s
}

func normalizeInto(dst, src []float64, eps float64) {
	var sum float64
	for _, v := range src {
		sum += v + eps
	}
	if sum == 0 {
		return
	}
	for i := range dst {
		dst[i] = (src[i] + eps) / sum
	}
}

// Detector classifies router runs as doomed using a likelihood ratio
// between an HMM trained on doomed runs and one trained on successful
// runs — the HMM counterpart of the MDP strategy card.
type Detector struct {
	Doomed  *HMM
	Success *HMM
}

// doomedRatio is the per-step log-likelihood ratio above which a step is
// a doomed signal: the doomed model explains the prefix better.
const doomedRatio = 0

// TrainDetector fits the two HMMs on a labeled corpus.
func TrainDetector(runs []logfile.Run, states int, seed int64) *Detector {
	if states <= 0 {
		states = 3
	}
	var good, bad [][]int
	for _, r := range runs {
		seq := Symbolize(r)
		if r.Success {
			good = append(good, seq)
		} else {
			bad = append(bad, seq)
		}
	}
	d := &Detector{
		Doomed:  New(states, mdp.ViolBins, seed),
		Success: New(states, mdp.ViolBins, seed+1),
	}
	d.Doomed.BaumWelch(bad, 25)
	d.Success.BaumWelch(good, 25)
	return d
}

// Symbolize converts a run's DRV series to the strategy card's
// violation-bin symbols.
func Symbolize(r logfile.Run) []int {
	seq := make([]int, len(r.DRVs))
	for i, d := range r.DRVs {
		seq[i] = mdp.ViolBin(d)
	}
	return seq
}

// Outcome applies the detector to a run, requiring k consecutive doomed
// signals; it returns the stopping iteration or -1. A prefix's
// log-likelihood is the running sum of the forward pass's log scales,
// so one pass per model scores every prefix.
func (d *Detector) Outcome(r logfile.Run, k int) int {
	if k < 1 {
		k = 1
	}
	seq := Symbolize(r)
	_, bad, _, err1 := d.Doomed.Forward(seq)
	_, good, _, err2 := d.Success.Forward(seq)
	if err1 != nil || err2 != nil {
		return -1
	}
	llBad, llGood := math.Log(bad[0]), math.Log(good[0])
	consec := 0
	for t := 1; t < len(seq); t++ {
		llBad += math.Log(bad[t])
		llGood += math.Log(good[t])
		// Per-step ratio so the signal is comparable across prefix
		// lengths.
		ratio := (llBad - llGood) / float64(t+1)
		if ratio > doomedRatio {
			consec++
			if consec >= k {
				return t
			}
		} else {
			consec = 0
		}
	}
	return -1
}

// Evaluate computes Type 1 / Type 2 errors for the detector on a corpus,
// mirroring mdp.Card.Evaluate so the two detectors can be ablated
// against each other.
func (d *Detector) Evaluate(runs []logfile.Run, consecutiveStops int) mdp.EvalResult {
	res := mdp.EvalResult{ConsecutiveStops: consecutiveStops, Runs: len(runs)}
	for _, r := range runs {
		iters := len(r.DRVs) - 1
		res.IterationsTotal += iters
		stoppedAt := d.Outcome(r, consecutiveStops)
		switch {
		case stoppedAt >= 0 && r.Success:
			res.Type1++
		case stoppedAt < 0 && !r.Success:
			res.Type2++
		}
		if stoppedAt >= 0 && !r.Success {
			res.IterationsSaved += iters - stoppedAt
		}
	}
	if res.Runs > 0 {
		res.TotalErrorPct = 100 * float64(res.Type1+res.Type2) / float64(res.Runs)
	}
	return res
}
