// Package logfile models detailed-router tool logfiles: the per-iteration
// DRV time series that the paper's doomed-run predictors consume.
//
// The paper trains its MDP on 1200 logfiles from artificial layouts and
// tests on 3742 logfiles from floorplans of an embedded CPU. Neither
// corpus is public, so this package regenerates equivalents by sweeping
// the detailed-routing simulator across designs, placements, routing
// supplies and run seeds — yielding the same observable: noisy DRV
// series, a mix of doomed and successful, with the paper's <200-DRV
// success criterion.
package logfile

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cellib"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
)

// Run is one detailed-routing tool run's observable record.
type Run struct {
	ID      int
	Design  string
	Corpus  string
	DRVs    []int // per-iteration violation counts (index 0 = initial)
	Final   int
	Success bool // Final < route.SuccessDRVThreshold
	// StoppedAt is the iteration a live supervisor STOPped the run
	// (0 = ran to its full budget). Only set by supervised generation;
	// the text logfile format does not carry it.
	StoppedAt int
}

// FromDetail converts a simulator result into a logfile record.
func FromDetail(id int, design, corpus string, res *route.DetailResult) Run {
	return Run{
		ID: id, Design: design, Corpus: corpus,
		DRVs:      append([]int(nil), res.DRVs...),
		Final:     res.Final,
		Success:   res.Success,
		StoppedAt: res.StopIter,
	}
}

// CorpusSpec parameterizes corpus generation.
type CorpusSpec struct {
	Name string
	Runs int
	Seed int64
	// Designs is how many distinct design+placement substrates to
	// build (runs are spread across them). Default 6.
	Designs int
	// DesignSpec builds the i-th design spec. Default: artificial
	// layouts for the "artificial" corpus name, embedded-CPU floorplan
	// proxies otherwise.
	DesignSpec func(i int, seed int64) netlist.Spec
	// TrackSupplies are the routing-capacity settings swept to produce
	// a mix of comfortable and congested runs. Default covers both.
	TrackSupplies []float64
	// Iterations per detailed-route run (default 20).
	Iterations int
	// Workers is the concurrent-run limit for corpus generation (0 = one
	// per CPU). All rng seeds are pre-drawn in the serial loop's order
	// before any work fans out, so the corpus is bit-identical at any
	// worker count.
	Workers int
	// Supervise, when set, returns the per-run live iteration hook
	// wired into route.DetailRouteCtx — the doomed-run card acting
	// while runs execute. A supervised corpus's unstopped runs are
	// bit-identical to the unsupervised corpus (the hook never touches
	// the rng stream); stopped runs are truncated with StoppedAt set.
	Supervise func(id int, design string) route.IterHook

	// JournalDir, when non-empty, makes GenerateJournaled crash-safe:
	// every completed run is appended to a durable write-ahead journal
	// in this directory, and a restarted generation replays the journal
	// instead of recomputing. When every run replays, the design/
	// placement/global-routing substrates are not built at all.
	JournalDir string
	// JournalSalt distinguishes corpora that share a spec but must not
	// share journal entries — e.g. a supervised corpus whose stopped
	// runs differ from the unsupervised corpus generated from the same
	// seeds.
	JournalSalt string
}

// runKey identifies one corpus run for the journal: every spec field
// that shapes the run's content, plus its id and pre-drawn seed. A
// changed spec changes the keys, so stale entries are skipped (and
// preserved), never served.
func (c CorpusSpec) runKey(id int, runSeed int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d|%d|%d|%d", c.Name, c.JournalSalt, c.Seed, c.Designs, c.Iterations, len(c.TrackSupplies))
	for _, s := range c.TrackSupplies {
		fmt.Fprintf(&b, "|%g", s)
	}
	fmt.Fprintf(&b, "|run%d|%d", id, runSeed)
	return b.String()
}

func (c CorpusSpec) withDefaults() CorpusSpec {
	if c.Runs <= 0 {
		c.Runs = 100
	}
	if c.Designs <= 0 {
		c.Designs = 6
	}
	if c.DesignSpec == nil {
		if c.Name == "artificial" {
			c.DesignSpec = func(i int, seed int64) netlist.Spec { return netlist.Artificial(seed + int64(i)) }
		} else {
			c.DesignSpec = func(i int, seed int64) netlist.Spec { return netlist.EmbeddedCPU(seed + int64(i)) }
		}
	}
	if len(c.TrackSupplies) == 0 {
		// Capacity-to-mean-demand ratios spanning clearly congested
		// (doomed) through comfortable (successful); the generator
		// normalizes by each design's measured routing demand so every
		// corpus mixes both outcomes regardless of design size.
		// The band around the congestion crossover (~0.9-1.8) is
		// deliberately sparse: real flows target feasible-but-tight
		// supply, and the paper's Fig. 9 curves separate cleanly into
		// success and doomed.
		c.TrackSupplies = []float64{0.5, 0.7, 1.3, 2.0, 2.6, 3.4}
	}
	if c.Iterations <= 0 {
		c.Iterations = 20
	}
	return c
}

// Generate builds a corpus of detailed-routing logfiles by sweeping
// designs, routing supplies and run seeds through the route simulator.
// Substrate construction fans out per design and detailed routing fans
// out per run on the campaign engine; every rng seed is pre-drawn in the
// order the serial loop consumed them, so the corpus does not depend on
// scheduling.
func Generate(spec CorpusSpec) []Run {
	return generate(spec.withDefaults(), nil, nil)
}

// corpusEntry is the journaled form of one completed corpus run.
type corpusEntry struct {
	Key string
	Run Run
}

// GenerateJournaled is Generate backed by the write-ahead journal in
// spec.JournalDir: completed runs are durably appended as they finish,
// and a generation restarted after a crash replays them instead of
// recomputing (bit-identically — a corpus run is a pure function of its
// pre-drawn seed). The journal is a journal.Keyed of runs under their
// runKey, so its rules are the campaign journal's: first run under a key
// wins, and append failures are surfaced in the returned error but never
// abort generation; the runs slice is always complete.
// With an empty JournalDir this is exactly Generate.
func GenerateJournaled(spec CorpusSpec) ([]Run, error) {
	spec = spec.withDefaults()
	if spec.JournalDir == "" {
		return generate(spec, nil, nil), nil
	}
	jrn, err := journal.OpenKeyed(spec.JournalDir, journal.Options{}, func(rec []byte) (string, Run, error) {
		var e corpusEntry
		err := gob.NewDecoder(bytes.NewReader(rec)).Decode(&e)
		if err == nil && e.Key == "" {
			err = errors.New("logfile: journal entry has no key")
		}
		return e.Key, e.Run, err
	})
	if err != nil {
		return nil, fmt.Errorf("logfile: open corpus journal: %w", err)
	}
	st := jrn.Stats()
	if st.Corrupt > 0 {
		metrics.Add("logfile.journal.corrupt", int64(st.Corrupt))
	}

	replayed := 0 // generate resolves every lookup before it fans out
	lookup := func(key string) (Run, bool) {
		r, ok := jrn.Get(key)
		if ok {
			replayed++
		}
		return r, ok
	}
	record := func(key string, r Run) {
		var buf bytes.Buffer
		err := gob.NewEncoder(&buf).Encode(corpusEntry{Key: key, Run: r})
		if err == nil {
			_, err = jrn.Put(key, r, buf.Bytes())
		}
		if err != nil {
			metrics.Add("logfile.journal.append_err", 1)
			return
		}
		metrics.Add("logfile.journal.appended", 1)
	}
	runs := generate(spec, lookup, record)
	if replayed > 0 {
		metrics.Add("logfile.journal.replayed", int64(replayed))
	}
	if skipped := st.Recovered - replayed; skipped > 0 {
		// Entries whose keys match no requested run: a changed spec.
		// They stay on disk untouched.
		metrics.Add("logfile.journal.skipped", int64(skipped))
	}
	return runs, errors.Join(jrn.Err(), jrn.Close())
}

// generate is the corpus generator core. lookup (optional) serves a run
// from the journal by key; record (optional) durably appends a freshly
// computed run. When every run is served by lookup, the substrate build
// — the expensive part — is skipped entirely.
func generate(spec CorpusSpec, lookup func(key string) (Run, bool), record func(key string, r Run)) []Run {
	rng := rand.New(rand.NewSource(spec.Seed))
	lib := cellib.Default14nm()
	eng := campaign.New(campaign.Config{Workers: spec.Workers})
	ctx := context.Background()

	// Pre-draw every seed in the serial loop's interleaved order: per
	// design, one probe draw then one draw per track supply; then one
	// draw per run.
	nSupply := len(spec.TrackSupplies)
	probeSeeds := make([]int64, spec.Designs)
	supplySeeds := make([]int64, spec.Designs*nSupply)
	for i := 0; i < spec.Designs; i++ {
		probeSeeds[i] = rng.Int63()
		for j := 0; j < nSupply; j++ {
			supplySeeds[i*nSupply+j] = rng.Int63()
		}
	}
	runSeeds := make([]int64, spec.Runs)
	for id := range runSeeds {
		runSeeds[id] = rng.Int63()
	}

	// Resolve which runs the journal already holds. When it holds all of
	// them, the substrate build below — the expensive part of corpus
	// generation — is skipped entirely: a fully journaled regeneration
	// costs only the replay.
	keys := make([]string, spec.Runs)
	cachedRun := make([]bool, spec.Runs)
	cachedVal := make([]Run, spec.Runs)
	uncached := spec.Runs
	if lookup != nil {
		for id := range keys {
			keys[id] = spec.runKey(id, runSeeds[id])
			if r, ok := lookup(keys[id]); ok {
				cachedRun[id], cachedVal[id] = true, r
				uncached--
			}
		}
	}
	if uncached == 0 {
		return cachedVal
	}

	// Build the congestion substrates: per design, per track supply,
	// one global-routing result. Each design's build is independent.
	type substrate struct {
		design string
		g      *route.GlobalResult
	}
	subs := make([]substrate, spec.Designs*nSupply)
	campaign.Map(ctx, eng, spec.Designs, func(i int) struct{} { //nolint:errcheck // background ctx never cancels
		ds := spec.DesignSpec(i, spec.Seed)
		n := netlist.Generate(lib, ds)
		place.Place(n, place.Options{
			Seed:  spec.Seed + int64(i),
			Moves: 25 * n.NumCells(),
		})
		// Probe the design's routing demand with unconstrained
		// capacity; TrackSupplies are ratios against the mean edge
		// demand, so corpora straddle the congestion crossover for
		// designs of any size.
		probe := route.GlobalRoute(n, route.GlobalOptions{
			Seed:          probeSeeds[i],
			TracksPerEdge: math.Inf(1),
		})
		var meanDemand float64
		for _, d := range probe.Demand {
			meanDemand += d
		}
		meanDemand /= float64(len(probe.Demand))
		if meanDemand < 1 {
			meanDemand = 1
		}
		for j, ratio := range spec.TrackSupplies {
			g := route.GlobalRoute(n, route.GlobalOptions{
				Seed:          supplySeeds[i*nSupply+j],
				TracksPerEdge: ratio * meanDemand,
			})
			subs[i*nSupply+j] = substrate{design: fmt.Sprintf("%s-%d", ds.Name, i), g: g}
		}
		return struct{}{}
	})

	runs := make([]Run, spec.Runs)
	campaign.Map(ctx, eng, spec.Runs, func(id int) struct{} { //nolint:errcheck // background ctx never cancels
		if cachedRun[id] {
			runs[id] = cachedVal[id]
			return struct{}{}
		}
		s := subs[id%len(subs)]
		opts := route.DetailOptions{
			Iterations: spec.Iterations,
			Seed:       runSeeds[id],
		}
		if spec.Supervise != nil {
			opts.IterHook = spec.Supervise(id, s.design)
		}
		res := route.DetailRouteCtx(ctx, s.g, opts)
		runs[id] = FromDetail(id, s.design, spec.Name, res)
		if record != nil {
			record(keys[id], runs[id])
		}
		return struct{}{}
	})
	return runs
}

// Stats summarizes a corpus.
type Stats struct {
	Runs       int
	Successes  int
	Doomed     int
	AvgFinal   float64
	AvgInitial float64
}

// Summarize computes corpus statistics.
func Summarize(runs []Run) Stats {
	s := Stats{Runs: len(runs)}
	for _, r := range runs {
		if r.Success {
			s.Successes++
		} else {
			s.Doomed++
		}
		s.AvgFinal += float64(r.Final)
		if len(r.DRVs) > 0 {
			s.AvgInitial += float64(r.DRVs[0])
		}
	}
	if len(runs) > 0 {
		s.AvgFinal /= float64(len(runs))
		s.AvgInitial /= float64(len(runs))
	}
	return s
}
