package repro

// PR 4: crash-safe orchestration. The paper's premise is that schedule
// slips come from wasted tool time; a killed overnight campaign that
// recomputes every finished run on restart is exactly such waste. This
// file exposes the campaign journal at the harness level: a durable
// sweep for the sprflow CLI, and a process-wide corpus-journal knob the
// doomed-run experiments pick up.

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/logfile"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// ResumeStats re-exports the campaign resume accounting.
type ResumeStats = campaign.ResumeStats

// corpusJournalDir is the process-wide corpus journal root ("" = off).
var corpusJournalDir atomic.Value

// SetCorpusJournal points corpus generation (Corpora, DoomedLive) at a
// durable journal directory: completed detailed-route runs are appended
// as they finish and replayed on restart, so a killed experiment
// resumes instead of regenerating. An empty dir turns journaling off.
func SetCorpusJournal(dir string) { corpusJournalDir.Store(dir) }

// CorpusJournalDir reports the configured corpus journal root.
func CorpusJournalDir() string {
	if v, ok := corpusJournalDir.Load().(string); ok {
		return v
	}
	return ""
}

// corpusJournalErr remembers the first corpus-journal durability
// failure (see CorpusJournalErr).
var corpusJournalErr atomic.Value

// CorpusJournalErr reports the first journal failure seen by corpus
// generation since the journal was configured. Journal failures are
// deliberately non-fatal — durability must never cost the live
// computation — so callers that care (the doomed CLI) poll this after
// their experiments finish.
func CorpusJournalErr() error {
	if v, ok := corpusJournalErr.Load().(error); ok {
		return v
	}
	return nil
}

// journaledCorpus runs spec through GenerateJournaled when a corpus
// journal is configured, salting the entries so differently supervised
// corpora sharing a spec never serve each other.
func journaledCorpus(spec logfile.CorpusSpec, salt string) []logfile.Run {
	dir := CorpusJournalDir()
	if dir == "" {
		return logfile.Generate(spec)
	}
	spec.JournalDir = dir
	spec.JournalSalt = salt
	runs, err := logfile.GenerateJournaled(spec)
	if err != nil && corpusJournalErr.Load() == nil {
		// The runs slice is complete even when the journal is not.
		corpusJournalErr.Store(err)
	}
	return runs
}

// SweepConfig parameterizes a crash-safe QOR sweep: the full cross of
// Freqs x Seeds on one design, journaled so a kill -9 at any moment
// loses at most the runs in flight.
type SweepConfig struct {
	Design *Design
	Base   FlowOptions // Seed and TargetFreqGHz are overridden per point
	Freqs  []float64
	Seeds  []int64
	// Workers caps concurrency (0 = one per CPU); results are identical
	// at any setting.
	Workers int
	// JournalDir enables the durable journal (and resume) when set.
	JournalDir string
	// StageTimeout arms the per-stage hung-tool watchdog (0 = off).
	StageTimeout time.Duration
	// Speculate overlaps downstream stages on predicted upstream
	// artifacts drawn from a sweep-local artifact memory
	// (flow.Options.Speculate + internal/spec, cross-seed tier: the
	// sweep's points are unique in (frequency, seed), so only family
	// predictions can fire). Committed results are byte-identical to a
	// non-speculative sweep at any Workers setting; only wall-clock and
	// the stderr-side accounting change.
	Speculate bool
	// SpecTolerancePct is the speculative commit tolerance on predicted
	// stage scalars (0 = the flow default, 1%).
	SpecTolerancePct float64
	// Warehouse, when non-nil, receives one METRICS record per flow
	// stage per point (node "local") through a warehouse emitter wired
	// as the campaign observer.
	Warehouse warehouse.Appender
}

// pointKeys lists the canonical options key of every point, in point
// order — the emitter's step-record-to-point-index map.
func pointKeys(pts []campaign.Point) []string {
	keys := make([]string, len(pts))
	for i, p := range pts {
		keys[i] = p.Options().Key()
	}
	return keys
}

// SweepPoint is one (frequency, seed) outcome.
type SweepPoint struct {
	FreqGHz    float64
	Seed       int64
	Met        bool
	WNSPs      float64
	AreaUm2    float64
	PowerNW    float64
	MaxFreqGHz float64
}

// SweepResult is a completed sweep plus its resume accounting.
type SweepResult struct {
	Points []SweepPoint
	// Resume reports what the journal replayed (zero value when no
	// journal was configured or the journal was empty).
	Resume ResumeStats
	// Recovery reports what journal recovery found on open.
	Recovery journal.RecoveryStats
	// JournalErr is a non-fatal durability failure: the sweep completed
	// in memory but the journal may be missing points.
	JournalErr error
}

// Sweep runs the full Freqs x Seeds cross on the campaign engine. With
// JournalDir set the sweep is crash-safe: every completed point is
// durable before the next is dispatched to disk-order, and rerunning
// the same sweep after a kill reproduces the uninterrupted results
// bit-identically at any worker count.
func Sweep(cfg SweepConfig) (SweepResult, error) {
	pts, err := CampaignPoints(cfg)
	if err != nil {
		return SweepResult{}, err
	}

	ecfg := campaign.Config{
		Workers:      campaign.Workers(cfg.Workers),
		Cache:        campaign.NewCache(0),
		StageTimeout: cfg.StageTimeout,
	}
	if cfg.Speculate {
		ecfg.Oracle = spec.NewMemory(spec.Options{CrossSeed: true})
	}
	var emit *warehouse.Emitter
	if cfg.Warehouse != nil {
		emit = warehouse.NewEmitter(campaign.ID(pts), "local", pointKeys(pts), cfg.Warehouse)
		ecfg.Observer = emit
		defer emit.Flush()
	}
	var out SweepResult
	var jrn *campaign.Journal
	if cfg.JournalDir != "" {
		jrn, err = campaign.OpenJournal(cfg.JournalDir, journal.Options{})
		if err != nil {
			return out, err
		}
		defer jrn.Close()
		out.Recovery = jrn.Stats()
		// The journal is the cache's durable tier: a point it holds is a
		// tier hit, a point it lacks is written through once computed.
		ecfg.Cache.SetTier(jrn)
	}
	results, err := campaign.New(ecfg).Run(context.Background(), pts)
	if jrn != nil {
		out.Resume, out.JournalErr = jrn.ResumeStats(), jrn.Err()
	}
	if err != nil {
		return out, err
	}

	out.Points = make([]SweepPoint, len(results))
	for i, r := range results {
		out.Points[i] = SweepPoint{
			FreqGHz:    pts[i].Options().TargetFreqGHz,
			Seed:       pts[i].Options().Seed,
			Met:        r.Met,
			WNSPs:      r.WNSPs,
			AreaUm2:    r.AreaUm2,
			PowerNW:    r.PowerNW,
			MaxFreqGHz: r.MaxFreqGHz,
		}
	}
	return out, nil
}

// Print renders one line per point — a stable, diffable format, so a
// killed-and-resumed sweep can be compared byte-for-byte against an
// uninterrupted one.
func (r SweepResult) Print(w io.Writer) {
	for _, p := range r.Points {
		fmt.Fprintf(w, "point freq=%.3f seed=%d met=%t wns=%.1f area=%.1f power=%.1f maxfreq=%.3f\n",
			p.FreqGHz, p.Seed, p.Met, p.WNSPs, p.AreaUm2, p.PowerNW, p.MaxFreqGHz)
	}
}

// ---------------------------------------------------------------------
// Speculative stage overlap: deterministic accounting for the CLIs.

// SpecOverlapResult is the outcome of running one downstream sweep
// twice — without and with speculative stage overlap — and comparing
// every committed result against the non-speculative reference. All
// fields are pure functions of (design, seed, oracle contents): the
// points run sequentially with unlimited speculative slots, so the
// report is byte-stable across machines and reruns.
type SpecOverlapResult struct {
	Points                 int
	Launched               int // speculative chains started
	Skipped                int // predictions dropped (redundant or slot-starved)
	Committed              int // downstream stages adopted from speculation
	Discarded              int // chains judged wrong and dropped
	SynthHits, SynthMisses int
	PlaceHits, PlaceMisses int
	// QORMismatches counts speculative results that drifted from the
	// non-speculative reference. Must be 0: commit decisions are pure
	// functions of (prediction, real result), never of timing.
	QORMismatches int
}

// SpecOverlap runs a routing-budget sweep — the downstream-knob shape
// speculation exists for: upstream inputs pinned, so after the first
// (cold) point the artifact memory re-derives every upstream stage —
// once as the plain reference and once speculatively against a shared
// artifact memory, accumulating the flow's speculation accounting.
func SpecOverlap(scale Scale, seed int64) SpecOverlapResult {
	design := designForScale(scale, seed)
	iters := []int{8, 12, 16, 20}
	if scale == Paper {
		iters = []int{6, 8, 10, 12, 14, 16, 18, 20}
	}
	mem := spec.NewMemory(spec.Options{})
	res := SpecOverlapResult{Points: len(iters)}
	for _, it := range iters {
		opts := flow.Options{TargetFreqGHz: 0.5, Seed: seed, RouteIters: it}
		ref := flow.Run(design, opts)

		opts.Speculate = flow.SpecConfig{Enabled: true}
		var st flow.SpecStats
		got, err := flow.RunCfg(context.Background(), design, opts, flow.RunConfig{
			Oracle:     mem,
			SpecReport: func(s flow.SpecStats) { st = s },
		})
		// The committed result may differ from the reference only in its
		// own recorded speculation config; everything the flow computed
		// must match exactly.
		if got != nil {
			norm := *got
			norm.Options.Speculate = flow.SpecConfig{}
			if err != nil || !reflect.DeepEqual(&norm, ref) {
				res.QORMismatches++
			}
		} else {
			res.QORMismatches++
		}
		res.Launched += st.Launched
		res.Skipped += st.Skipped
		res.Committed += st.Committed
		res.Discarded += st.Discarded
		countHit := func(j flow.SpecJudgment, hits, misses *int) {
			if !j.Predicted {
				return
			}
			if j.Hit {
				*hits++
			} else {
				*misses++
			}
		}
		countHit(st.Synth, &res.SynthHits, &res.SynthMisses)
		countHit(st.Place, &res.PlaceHits, &res.PlaceMisses)
	}
	return res
}

// Print writes the overlap report, ending with the same figures as
// key=value lines for a reader that greps the report
// (TestSpecOverlapShape reads the struct).
func (r SpecOverlapResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Speculative stage overlap (%d downstream points, artifact-memory oracle)\n", r.Points)
	fmt.Fprintf(w, "chains:    %d launched, %d skipped, %d discarded; %d stages committed\n",
		r.Launched, r.Skipped, r.Discarded, r.Committed)
	fmt.Fprintf(w, "predictor: synth %d hit / %d miss, place %d hit / %d miss\n",
		r.SynthHits, r.SynthMisses, r.PlaceHits, r.PlaceMisses)
	fmt.Fprintf(w, "QOR drift vs non-speculative reference: %d (commits are timing-independent when 0)\n",
		r.QORMismatches)
	fmt.Fprintf(w, "spec_overlap_points=%d\n", r.Points)
	fmt.Fprintf(w, "spec_overlap_launched=%d\n", r.Launched)
	fmt.Fprintf(w, "spec_overlap_committed=%d\n", r.Committed)
	fmt.Fprintf(w, "spec_overlap_discarded=%d\n", r.Discarded)
	fmt.Fprintf(w, "spec_overlap_qor_mismatches=%d\n", r.QORMismatches)
}
