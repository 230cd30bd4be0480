package repro

// PR 4: crash-safe orchestration. The paper's premise is that schedule
// slips come from wasted tool time; a killed overnight campaign that
// recomputes every finished run on restart is exactly such waste. This
// file exposes the campaign journal at the harness level: a durable
// sweep for the sprflow CLI.

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/warehouse"
)

// ResumeStats re-exports the campaign resume accounting.
type ResumeStats = campaign.ResumeStats

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
	// Warehouse, when non-nil, receives one METRICS record per flow
	// stage per point. Sweep wires a warehouse emitter (node "local")
	// as the campaign observer; DistSweep serves the warehouse at
	// /warehouse/ on a loopback metrics.Server for the duration of the
	// sweep, and every worker node ingests its records through its own
	// HTTP client — the same ingest path a multi-host fleet uses.
	// Ingestion always bypasses the chaos transports: observability
	// must survive the faults it describes.
	Warehouse *warehouse.Warehouse
}

// SweepSpec is the one description of a QOR sweep that every front end
// expands: sprflow's and campd's flags and the metricsd front door's
// JSON. The sweep is Seeds seeds from Seed up at 0.8, 1 and 1.2 × Freq
// on the named design. Every process that expands the same spec gets
// the same points, keys and campaign id, so campd's coordinator, sprflow
// and the front door print the same bytes.
type SweepSpec struct {
	Design string  `json:"design"` // pulpino, cpu, artificial, tiny
	Freq   float64 `json:"freq"`
	Seed   int64   `json:"seed"`
	Seeds  int     `json:"seeds"`
	Effort int     `json:"effort"` // synthesis effort 1..3
}

// Cross is the spec's frequency × seed cross: 0.8, 1 and 1.2 × Freq,
// and Seed … Seed+Seeds−1 (none when Seeds < 1).
func (s SweepSpec) Cross() (freqs []float64, seeds []int64) {
	seeds = make([]int64, max(s.Seeds, 0))
	for i := range seeds {
		seeds[i] = s.Seed + int64(i)
	}
	return []float64{0.8 * s.Freq, s.Freq, 1.2 * s.Freq}, seeds
}

// Config builds the spec's design — pulpino, cpu, artificial or tiny,
// generated at Seed — and its sweep. Base carries the synthesis effort;
// callers add kernel options and the run knobs (Workers, JournalDir,
// ...) to the result.
func (s SweepSpec) Config() (SweepConfig, error) {
	var ds DesignSpec
	switch s.Design {
	case "pulpino":
		ds = PulpinoProxy(s.Seed)
	case "cpu":
		ds = EmbeddedCPU(s.Seed)
	case "artificial":
		ds = Artificial(s.Seed)
	case "tiny":
		ds = TinyDesign(s.Seed)
	default:
		return SweepConfig{}, fmt.Errorf("unknown design %q", s.Design)
	}
	freqs, seeds := s.Cross()
	return SweepConfig{
		Design: NewDesign(DefaultLibrary(), ds),
		Base:   FlowOptions{SynthEffort: s.Effort},
		Freqs:  freqs,
		Seeds:  seeds,
	}, nil
}

// PointKeys lists the canonical options key of every point, in point
// order — the emitter's step-record-to-point-index map.
func PointKeys(pts []campaign.Point) []string {
	keys := make([]string, len(pts))
	for i, p := range pts {
		keys[i] = p.Options().Key()
	}
	return keys
}

// SweepRows pairs every point with its result as one printed row.
func SweepRows(pts []campaign.Point, results []*flow.Result) []SweepPoint {
	rows := make([]SweepPoint, len(results))
	for i, r := range results {
		o := pts[i].Options()
		rows[i] = SweepPoint{
			FreqGHz:    o.TargetFreqGHz,
			Seed:       o.Seed,
			Met:        r.Met,
			WNSPs:      r.WNSPs,
			AreaUm2:    r.AreaUm2,
			PowerNW:    r.PowerNW,
			MaxFreqGHz: r.MaxFreqGHz,
		}
	}
	return rows
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
// JournalDir set the sweep is crash-safe: every completed point is on
// disk before any caller sees its result, and rerunning the same sweep
// after a kill reproduces the uninterrupted results bit-identically at
// any worker count.
func Sweep(cfg SweepConfig) (SweepResult, error) {
	pts, err := CampaignPoints(cfg)
	if err != nil {
		return SweepResult{}, err
	}

	ecfg := campaign.Config{
		Workers:      cfg.Workers,
		Cache:        campaign.NewCache(0),
		StageTimeout: cfg.StageTimeout,
	}
	if cfg.Warehouse != nil {
		emit := warehouse.NewEmitter(campaign.ID(pts), "local", PointKeys(pts), cfg.Warehouse)
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
	out.Points = SweepRows(pts, results)
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
