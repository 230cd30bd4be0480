package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/warehouse"
)

// env is what every workload and layer pass is built from.
type env struct {
	lib *cellib.Library
	// seed draws the run seeds of every point (seed+1 .. seed+k): the
	// paper's tool-noise axis, and the benchmark's input seed.
	seed int64
	// small cuts every design to `tiny` and every count to a handful,
	// so the smoke test exercises each code path in well under a second.
	small bool
	tmp   string // scratch root; every journal/warehouse/store dir is made below it
	rec   *recorder
}

// pick returns full, or small at smoke-test scale.
func (e *env) pick(full, small int) int {
	if e.small {
		return small
	}
	return full
}

// designSeed draws the structure of the generated designs. It is a
// constant, not drawn from -seed: two structures of one spec differ by
// ±5 % in flow time and allocation, which alone would use up the
// regression bounds, while run seeds on one structure differ by about
// 1 %. The designs are fixed reference testcases, as named benchmark
// circuits are.
const designSeed = 1

// spec names the three benchmark designs. soc-proxy is the pulpino
// proxy with ten times the cells, so that one flow run takes most of a
// second and kernels, not scheduling, set its time.
func (e *env) spec(name string) netlist.Spec {
	var s netlist.Spec
	switch {
	case e.small || name == "tiny":
		s = netlist.Tiny(designSeed)
	case name == "soc-proxy":
		s = netlist.PulpinoProxy(designSeed)
		s.NumComb *= 10
		s.NumFFs *= 10
		s.NumPIs *= 2
	default:
		s = netlist.PulpinoProxy(designSeed)
	}
	s.Name = name
	return s
}

func (e *env) design(name string) *netlist.Netlist {
	return netlist.Generate(e.lib, e.spec(name))
}

// seeds returns the k run seeds seed+1 .. seed+k.
func (e *env) seeds(k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = e.seed + int64(i) + 1
	}
	return out
}

func (e *env) mkdir(pattern string) (string, error) {
	return os.MkdirTemp(e.tmp, pattern)
}

// sweep is one campaign's point list: freqs x seeds on one design, in
// the order repro.CampaignPoints expands it.
type sweep struct {
	design *netlist.Netlist
	base   flow.Options
	freqs  []float64
	seeds  []int64
}

func (s sweep) points() int { return len(s.freqs) * len(s.seeds) }

func (s sweep) config(workers int) repro.SweepConfig {
	return repro.SweepConfig{Design: s.design, Base: s.base, Freqs: s.freqs, Seeds: s.seeds, Workers: workers}
}

// pointHash is the fnv-64a of every SweepPoint field, floats in their
// shortest round-trip form, so two points hash alike only when they are
// bit-identical.
func pointHash(p repro.SweepPoint) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%g %d %t %g %g %g %g", p.FreqGHz, p.Seed, p.Met, p.WNSPs, p.AreaUm2, p.PowerNW, p.MaxFreqGHz)
	return h.Sum64()
}

func resultPoint(r *flow.Result) repro.SweepPoint {
	return repro.SweepPoint{
		FreqGHz: r.Options.TargetFreqGHz, Seed: r.Options.Seed, Met: r.Met,
		WNSPs: r.WNSPs, AreaUm2: r.AreaUm2, PowerNW: r.PowerNW, MaxFreqGHz: r.MaxFreqGHz,
	}
}

// combine folds per-point hashes into the one hash a row prints.
func combine(hashes []uint64) uint64 {
	h := fnv.New64a()
	for _, v := range hashes {
		fmt.Fprintf(h, "%016x", v)
	}
	return h.Sum64()
}

// reference computes the sweep with plain flow.Run loops — no engine,
// cache, journal or network — and returns each point's hash. Every
// workload output is checked against it, so workloads that share a
// point list are also checked against each other. invalid counts
// reference results whose netlist fails Validate. Two loops run side by
// side, each taking every other point, only to halve set-up time: a flow
// run is a pure function of (design, options).
func reference(s sweep) (hashes []uint64, invalid int) {
	var points []flow.Options
	for _, f := range s.freqs {
		for _, seed := range s.seeds {
			opts := s.base
			opts.TargetFreqGHz, opts.Seed = f, seed
			points = append(points, opts)
		}
	}
	hashes = make([]uint64, len(points))
	valid := make([]bool, len(points))
	const loops = 2
	var wg sync.WaitGroup
	for l := 0; l < loops; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < len(points); i += loops {
				r := flow.Run(s.design, points[i])
				hashes[i], valid[i] = pointHash(resultPoint(r)), r.Netlist.Validate() == nil
			}
		}(l)
	}
	wg.Wait()
	for _, ok := range valid {
		if !ok {
			invalid++
		}
	}
	return hashes, invalid
}

// mismatches counts the points whose hash disagrees with the reference.
func mismatches(ref []uint64, got []repro.SweepPoint) int {
	if len(got) != len(ref) {
		return len(ref)
	}
	bad := 0
	for i, p := range got {
		if pointHash(p) != ref[i] {
			bad++
		}
	}
	return bad
}

// meter measures the timed part of one repetition: wall clock, process
// CPU and bytes allocated. A repetition starts it after making its temp
// dirs and stops it before checking outputs, so only calls into the
// program are measured.
type meter struct {
	wall, cpu, allocMB float64

	t0     time.Time
	c0     float64
	alloc0 uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func (m *meter) start() {
	// Collect the previous repetition's garbage outside the timer so
	// every repetition starts from the same heap.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0, m.c0, m.t0 = ms.TotalAlloc, cpuSeconds(), time.Now()
}

func (m *meter) stop() {
	m.wall = time.Since(m.t0).Seconds()
	m.cpu = cpuSeconds() - m.c0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocMB = float64(ms.TotalAlloc-m.alloc0) / 1e6
}

// instance is a workload after set-up, ready to repeat.
type instance struct {
	visits int      // point visits per repetition
	ref    []uint64 // reference hash of each unique point
	// invalid counts reference netlists that failed Validate; they are
	// failures of the run whatever the repetitions do.
	invalid int
	// rep runs one campaign repetition from fresh caches, stores and
	// temp dirs and returns how many point visits failed their check.
	// An error fails every visit.
	rep func(m *meter) (failed int, err error)
	// inProcess, set only by dist_2node, runs the same points through
	// the in-process engine at equal concurrency: the base of
	// dist.overhead_pct.
	inProcess func(m *meter) (failed int, err error)
	close     func() // removes what set-up left on disk; may be nil
}

type workload struct {
	name, why string
	setup     func(e *env) (*instance, error)
}

// The six workloads. Names are fixed: later issues cite them, and
// BENCHMARK.json repeats them with the same reasons.
var workloads = []workload{
	{"soc_cold", "6 unique soc-proxy points, 2 workers, serial kernels, no journal: kernels do >=95% of the work, so a place/synth/route/sta gain shows here and an infra change must not", setupSocCold},
	{"soc_single", "4 soc-proxy points one at a time through the speculative annealer (2 workers) and the 4-tile router: the single-run floor, and the other engine of each kernel", setupSocSingle},
	{"memo_revisit", "64 tiny points revisited by 400 studies on one engine (99.7% cache hits): campaign cache, Options.Key, singleflight and sched admission do the work, kernels almost none", setupMemoRevisit},
	{"durable_write", "48 pulpino-proxy points, 2 workers, fsynced journal plus on-disk warehouse in fresh dirs: the write side of journal, entry codec and warehouse", setupDurableWrite},
	{"durable_resume", "the same 48 points rerun against a populated journal and warehouse: open, recover, decode, replay, assemble, no flow computed: the read side of the same layers", setupDurableResume},
	{"dist_2node", "the same 48 points through coordinator, RPC, claim, 2 one-slot workers and a WAL-backed store over loopback: same compute as durable_write, so the dist data plane is the difference", setupDist2Node},
}

var base = flow.Options{SynthEffort: 2}

// sweepRep is the shape of every repro.Sweep-like repetition: run,
// then count the points that disagree with the reference. extra holds
// workload-specific checks on the result.
func sweepRep(ref []uint64, run func(m *meter) (repro.SweepResult, error), extra func(repro.SweepResult) error) func(m *meter) (int, error) {
	return func(m *meter) (int, error) {
		res, err := run(m)
		if err == nil && res.JournalErr != nil {
			err = fmt.Errorf("journal: %w", res.JournalErr)
		}
		if err == nil && extra != nil {
			err = extra(res)
		}
		if err != nil {
			return len(ref), err
		}
		return mismatches(ref, res.Points), nil
	}
}

func setupSocCold(e *env) (*instance, error) {
	s := sweep{design: e.design("soc-proxy"), base: base, freqs: []float64{0.4, 0.5}, seeds: e.seeds(e.pick(3, 2))}
	return inProcessInstance(s, 2), nil
}

func setupSocSingle(e *env) (*instance, error) {
	b := base
	b.PlaceWorkers, b.RouteTiles = 2, 4
	s := sweep{design: e.design("soc-proxy"), base: b, freqs: []float64{0.5}, seeds: e.seeds(e.pick(4, 2))}
	return inProcessInstance(s, 1), nil
}

// inProcessInstance is a journal-less repro.Sweep of s.
func inProcessInstance(s sweep, workers int) *instance {
	ref, invalid := reference(s)
	return &instance{visits: s.points(), ref: ref, invalid: invalid, rep: inProcessRep(s, ref, workers)}
}

func inProcessRep(s sweep, ref []uint64, workers int) func(m *meter) (int, error) {
	cfg := s.config(workers)
	return sweepRep(ref, func(m *meter) (repro.SweepResult, error) {
		m.start()
		defer m.stop()
		return repro.Sweep(cfg)
	}, nil)
}

func setupMemoRevisit(e *env) (*instance, error) {
	freqs := []float64{0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65}
	s := sweep{design: e.design("tiny"), base: base, freqs: freqs, seeds: e.seeds(8)}
	studies := e.pick(400, 3)
	ref, invalid := reference(s)
	pts, err := repro.CampaignPoints(s.config(2))
	if err != nil {
		return nil, err
	}
	// bad reports whether a result the reference has not yet vouched
	// for fails its checks.
	bad := func(i int, r *flow.Result) bool {
		return r == nil || r.Netlist.Validate() != nil || pointHash(resultPoint(r)) != ref[i]
	}
	rep := func(m *meter) (int, error) {
		eng := campaign.New(campaign.Config{Workers: 2, Cache: campaign.NewCache(0)})
		var first []*flow.Result
		failed := 0
		m.start()
		for st := 0; st < studies; st++ {
			res, err := eng.Run(context.Background(), pts)
			if err != nil {
				m.stop()
				return studies * len(pts), err
			}
			if first == nil {
				first = res // checked once the timer has stopped
				continue
			}
			// A cache hit returns the first study's pointer; only a
			// result that is not that pointer needs hashing, which keeps
			// the check out of the per-visit cost being measured.
			for i, r := range res {
				if r != first[i] && bad(i, r) {
					failed++
				}
			}
		}
		m.stop()
		for i, r := range first {
			if bad(i, r) {
				failed += studies // every study served this result
			}
		}
		return failed, nil
	}
	return &instance{visits: studies * len(pts), ref: ref, invalid: invalid, rep: rep}, nil
}

// durableSweep is the 48-point pulpino-proxy campaign the three durable
// workloads share.
func durableSweep(e *env) sweep {
	return sweep{design: e.design("pulpino-proxy"), base: base, freqs: []float64{0.4, 0.5, 0.6}, seeds: e.seeds(e.pick(16, 2))}
}

// durableRun is one journaled, warehoused repro.Sweep over dir: open
// the warehouse, sweep, close. durable_write calls it on an empty dir,
// durable_resume on a populated one.
func durableRun(cfg repro.SweepConfig, dir string, m *meter) (repro.SweepResult, error) {
	m.start()
	defer m.stop()
	wh, err := warehouse.Open(filepath.Join(dir, "warehouse"), journal.Options{})
	if err != nil {
		return repro.SweepResult{}, err
	}
	cfg.JournalDir = filepath.Join(dir, "journal")
	cfg.Warehouse = wh
	res, err := repro.Sweep(cfg)
	if cerr := wh.Close(); err == nil {
		err = cerr
	}
	return res, err
}

func setupDurableWrite(e *env) (*instance, error) {
	s := durableSweep(e)
	ref, invalid := reference(s)
	cfg := s.config(2)
	return &instance{
		visits: s.points(), ref: ref, invalid: invalid,
		rep: sweepRep(ref, func(m *meter) (repro.SweepResult, error) {
			dir, err := e.mkdir("durable_write-")
			if err != nil {
				return repro.SweepResult{}, err
			}
			defer os.RemoveAll(dir)
			return durableRun(cfg, dir, m)
		}, func(res repro.SweepResult) error {
			if res.Resume.Replayed != 0 {
				return fmt.Errorf("fresh journal replayed %d points", res.Resume.Replayed)
			}
			return nil
		}),
	}, nil
}

func setupDurableResume(e *env) (*instance, error) {
	s := durableSweep(e)
	ref, invalid := reference(s)
	cfg := s.config(2)
	dir, err := e.mkdir("durable_resume-")
	if err != nil {
		return nil, err
	}
	// Populate once; a resume appends nothing (replayed keys are marked
	// seen, warehouse records dedupe before the WAL), so every
	// repetition reads the same bytes.
	if _, err := durableRun(cfg, dir, &meter{}); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("populate: %w", err)
	}
	return &instance{
		visits: s.points(), ref: ref, invalid: invalid,
		rep: sweepRep(ref, func(m *meter) (repro.SweepResult, error) {
			return durableRun(cfg, dir, m)
		}, func(res repro.SweepResult) error {
			if res.Resume.Replayed != s.points() || res.Resume.Corrupt != 0 {
				return fmt.Errorf("resume replayed %d of %d points, %d corrupt", res.Resume.Replayed, s.points(), res.Resume.Corrupt)
			}
			return nil
		}),
		close: func() { os.RemoveAll(dir) },
	}, nil
}

func setupDist2Node(e *env) (*instance, error) {
	s := durableSweep(e)
	ref, invalid := reference(s)
	return &instance{
		visits: s.points(), ref: ref, invalid: invalid,
		rep: sweepRep(ref, func(m *meter) (repro.SweepResult, error) {
			dir, err := e.mkdir("dist_2node-")
			if err != nil {
				return repro.SweepResult{}, err
			}
			defer os.RemoveAll(dir)
			cfg := repro.DistSweepConfig{SweepConfig: s.config(1), Nodes: 2}
			cfg.JournalDir = dir
			m.start()
			defer m.stop()
			return repro.DistSweep(cfg)
		}, nil),
		inProcess: inProcessRep(s, ref, 2),
	}, nil
}
