package synth

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/sta"
)

func tiny(seed int64) *netlist.Netlist {
	return netlist.Generate(cellib.Default14nm(), netlist.Tiny(seed))
}

// socProxy is the spec of the repo benchmark's soc-proxy: ten pulpinos.
func socProxy() netlist.Spec {
	spec := netlist.PulpinoProxy(1)
	spec.NumComb *= 10
	spec.NumFFs *= 10
	spec.NumPIs *= 2
	return spec
}

func TestRunProducesValidNetlist(t *testing.T) {
	d := tiny(1)
	res := Run(d, Options{TargetFreqGHz: 0.5, Seed: 1})
	if err := res.Netlist.Validate(); err != nil {
		t.Fatalf("synthesized netlist invalid: %v", err)
	}
	if res.AreaUm2 <= 0 || res.Passes < 1 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestInputUnmodified(t *testing.T) {
	d := tiny(2)
	areaBefore := d.Area()
	cells := len(d.Insts)
	Run(d, Options{TargetFreqGHz: 0.9, Seed: 1})
	if d.Area() != areaBefore || len(d.Insts) != cells {
		t.Fatal("Run modified its input design")
	}
}

func TestEasyTargetMet(t *testing.T) {
	d := tiny(3)
	res := Run(d, Options{TargetFreqGHz: 0.2, Seed: 1})
	if !res.Met {
		t.Fatalf("0.2 GHz should be trivially met, WNS=%v", res.WNSPs)
	}
}

func TestImpossibleTargetNotMet(t *testing.T) {
	d := tiny(4)
	res := Run(d, Options{TargetFreqGHz: 50, Seed: 1})
	if res.Met {
		t.Fatal("50 GHz cannot be met by this library")
	}
	if res.WNSPs >= 0 {
		t.Fatalf("WNS should be negative: %v", res.WNSPs)
	}
}

func TestHigherTargetCostsArea(t *testing.T) {
	// The area-vs-target staircase underlying Fig. 3 (left): pushing
	// frequency costs area through upsizing.
	d := tiny(5)
	low := Run(d, Options{TargetFreqGHz: 0.3, Seed: 1})
	fmax := MaxAchievableFreq(d, Options{Seed: 1}, 0.3, 3)
	high := Run(d, Options{TargetFreqGHz: fmax * 0.98, Seed: 1})
	if high.AreaUm2 <= low.AreaUm2 {
		t.Errorf("near-fmax area %v should exceed relaxed-target area %v", high.AreaUm2, low.AreaUm2)
	}
	if high.Upsized == 0 {
		t.Error("near-fmax synthesis should upsize cells")
	}
}

func TestSeedNoiseNearFmax(t *testing.T) {
	// Different seeds near fmax must scatter in area (the paper's
	// implementation-noise phenomenon); at a relaxed target the noise
	// should be much smaller.
	d := tiny(6)
	fmax := MaxAchievableFreq(d, Options{Seed: 1}, 0.3, 3)
	spread := func(freq float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for seed := int64(0); seed < 8; seed++ {
			a := Run(d, Options{TargetFreqGHz: freq, Seed: seed}).AreaUm2
			lo = math.Min(lo, a)
			hi = math.Max(hi, a)
		}
		return hi - lo
	}
	if spread(fmax*0.97) <= spread(0.25) {
		t.Errorf("noise near fmax (%v) should exceed noise at relaxed target (%v)",
			spread(fmax*0.97), spread(0.25))
	}
}

func TestDeterministicForSeed(t *testing.T) {
	d := tiny(7)
	a := Run(d, Options{TargetFreqGHz: 0.8, Seed: 42})
	b := Run(d, Options{TargetFreqGHz: 0.8, Seed: 42})
	if a.AreaUm2 != b.AreaUm2 || a.WNSPs != b.WNSPs || a.Upsized != b.Upsized {
		t.Fatalf("same seed gave different results: %+v vs %+v", a, b)
	}
}

func TestHighFanoutBuffered(t *testing.T) {
	d := tiny(8)
	// Manufacture a high-fanout net: connect many sinks to net of inst 20.
	target := d.FanoutNet[20]
	for i := 30; i < 55; i++ {
		if d.Insts[i].Cell.Class.Sequential() {
			continue
		}
		d.Connect(target, i, 0)
	}
	if err := d.Relevel(); err != nil {
		t.Fatal(err)
	}
	res := Run(d, Options{TargetFreqGHz: 0.4, Seed: 1, MaxFanout: 6})
	if res.BuffersAdded == 0 {
		t.Fatal("expected buffering of the 25+-sink net")
	}
	for i := range res.Netlist.Nets {
		net := &res.Netlist.Nets[i]
		if net.IsClock {
			continue
		}
		if len(net.Sinks) > 25 {
			t.Errorf("net %d still has %d sinks", i, len(net.Sinks))
		}
	}
	if err := res.Netlist.Validate(); err != nil {
		t.Fatalf("buffered netlist invalid: %v", err)
	}
}

func TestMetImpliesSignoffClose(t *testing.T) {
	// Synthesis closes on the fast engine; signoff should be within
	// the engines' miscorrelation band, not wildly off.
	d := tiny(9)
	res := Run(d, Options{TargetFreqGHz: 0.4, Seed: 1})
	if !res.Met {
		t.Skip("target not met")
	}
	so := sta.Analyze(res.Netlist, sta.Config{Engine: sta.Signoff})
	if so.WNSPs < res.WNSPs-400 {
		t.Errorf("signoff WNS %v too far below fast WNS %v", so.WNSPs, res.WNSPs)
	}
}

func TestMaxAchievableFreqBounds(t *testing.T) {
	d := tiny(10)
	fmax := MaxAchievableFreq(d, Options{Seed: 3}, 0.2, 4)
	if fmax <= 0.2 || fmax >= 4 {
		t.Fatalf("fmax %v outside (0.2, 4)", fmax)
	}
	met := Run(d, Options{TargetFreqGHz: fmax, Seed: 3})
	if !met.Met {
		t.Errorf("fmax %v from bisection should be achievable", fmax)
	}
	// Met(f) is not strictly monotone (tighter targets get more sizing
	// effort), so only check a generous margin above fmax.
	notMet := Run(d, Options{TargetFreqGHz: fmax * 3, Seed: 3})
	if notMet.Met {
		t.Errorf("fmax*3 = %v GHz should not be achievable", fmax*3)
	}
}

func TestEffortReducesViolations(t *testing.T) {
	d := tiny(11)
	fmax := MaxAchievableFreq(d, Options{Seed: 1}, 0.3, 3)
	lo := Run(d, Options{TargetFreqGHz: fmax * 1.05, Seed: 1, Effort: 1})
	hi := Run(d, Options{TargetFreqGHz: fmax * 1.05, Seed: 1, Effort: 3})
	if hi.WNSPs < lo.WNSPs-1 {
		t.Errorf("higher effort should not be clearly worse: effort3 WNS %v vs effort1 %v", hi.WNSPs, lo.WNSPs)
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Effort != 2 || o.MaxFanout != 8 || o.UpsizeFrac != 0.35 || o.TargetFreqGHz != 0.5 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

// faninConeRef is the map-based walk faninCone replaced, kept as the
// reference: one cone, nothing remembered between calls.
func faninConeRef(n *netlist.Netlist, netID, depth int) []int {
	var cone []int
	frontier := []int{netID}
	visited := make(map[int]bool)
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []int
		for _, nid := range frontier {
			drv := n.Nets[nid].Driver
			if drv < 0 || visited[drv] {
				continue
			}
			visited[drv] = true
			cone = append(cone, drv)
			if n.Insts[drv].Cell.Class.Sequential() {
				continue
			}
			for _, fn := range n.FaninNet[drv] {
				if fn >= 0 && !n.Nets[fn].IsClock {
					next = append(next, fn)
				}
			}
		}
		frontier = next
	}
	return cone
}

// TestFaninConeMatchesReference reuses one walker across random nets
// and depths, reach cleared before each as at the start of a pass: the walk
// over the compiled graph finds the same instances, in the same
// order, as the reference over the netlist, with no buffer state leaking
// between calls.
func TestFaninConeMatchesReference(t *testing.T) {
	n := netlist.Generate(cellib.Default14nm(), netlist.PulpinoProxy(2))
	g := sta.Compile(n)
	rng := rand.New(rand.NewSource(5))
	walk := coneWalker{reach: make([]int8, len(n.Insts))}
	for i := 0; i < 2000; i++ {
		netID, depth := rng.Intn(len(n.Nets)), 1+rng.Intn(8)
		clear(walk.reach)
		got, want := walk.faninCone(g, netID, depth), faninConeRef(n, netID, depth)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("net %d depth %d: cone %v, reference %v", netID, depth, got, want)
		}
	}
}

// refCandidates is upsizePass's candidate list — the endpoints attacked, the
// cells scored and the draws made, in the order found — built from whole
// cones, every endpoint walking all six levels with faninConeRef, and from
// loads walked off the netlist with NetLoad.
func refCandidates(n *netlist.Netlist, rep *sta.Report, opts Options, rng *rand.Rand) []cand {
	var viol []sta.Endpoint
	for _, ep := range rep.WorstEndpoints(len(rep.Endpoints)) {
		if ep.SlackPs < 0 {
			viol = append(viol, ep)
		}
	}
	if len(viol) == 0 {
		return nil
	}
	k := min(int(float64(len(viol))*opts.UpsizeFrac)+1, len(viol))
	rng.Shuffle(len(viol), func(i, j int) { viol[i], viol[j] = viol[j], viol[i] })
	var cands []cand
	seen := map[int]bool{}
	for _, ep := range viol[:k] {
		for _, id := range faninConeRef(n, ep.Net, 6) {
			out := n.FanoutNet[id]
			if seen[id] || out < 0 {
				seen[id] = true
				continue
			}
			seen[id] = true
			cell, load := n.Insts[id].Cell, n.NetLoad(out)
			up, ok := n.Lib.Upsize(cell)
			if !ok {
				continue
			}
			dArea := up.Area - cell.Area
			if dArea <= 0 {
				dArea = 1e-9
			}
			cands = append(cands, cand{inst: id, score: (cell.Delay(load) - up.Delay(load)) / dArea * (0.8 + 0.4*rng.Float64())})
		}
	}
	return cands
}

// TestUpsizePassMatchesWholeCones: a pass prunes each endpoint's cone by
// what earlier endpoints of the pass already covered, scores from the
// analysis's load table, and picks its top third by a cutoff. Over every
// pass of a pulpino and a soc-proxy synthesis, on one reused Analyzer, the
// candidates it ends up with — cells, scores (each holds a draw, so also
// the order they were found in) — are those of unpruned cones scored with
// NetLoad, the cells it resizes are the first third of that list sorted,
// and the stream is left where the reference leaves it.
func TestUpsizePassMatchesWholeCones(t *testing.T) {
	soc := socProxy()
	for _, tc := range []struct {
		spec netlist.Spec
		ghz  float64 // out of reach, so that no pass is the last for want of violations
	}{{netlist.PulpinoProxy(1), 1.2}, {soc, 0.5}} {
		spec, opts := tc.spec, Options{TargetFreqGHz: tc.ghz, Effort: 2, Seed: 1}.withDefaults()
		n := netlist.Generate(cellib.Default14nm(), spec)
		n.ClockPeriodPs = 1000 / opts.TargetFreqGHz
		rng, refRng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		bufferHighFanout(n.Clone(), opts, refRng) // the same draws
		bufferHighFanout(n, opts, rng)
		if err := n.Relevel(); err != nil {
			t.Fatal(err)
		}
		g := sta.Compile(n)
		var timer sta.Analyzer
		var bufs passBuffers
		var res Result
		passes, pruned := 0, 0
		for ; passes < 6*opts.Effort; passes++ {
			rep := timer.Analyze(g, sta.Config{Engine: sta.Fast})
			fresh := sta.Analyze(n, sta.Config{Engine: sta.Fast})
			rep.WorstEndpoints(0) // both sort views built: the reused report keeps its storage
			fresh.WorstEndpoints(0)
			if !reflect.DeepEqual(rep, fresh) {
				t.Fatalf("%s pass %d: the reused Analyzer's report differs from a one-shot Analyze", spec.Name, passes)
			}
			for i := range n.Nets {
				if got, want := timer.Load(i), n.NetLoad(i); got != want {
					t.Fatalf("%s pass %d: the pass would score net %d at load %v, NetLoad is %v", spec.Name, passes, i, got, want)
				}
			}
			want := refCandidates(n, rep, opts, refRng)
			drive := make([]int, len(n.Insts))
			for i := range n.Insts {
				drive[i] = n.Insts[i].Cell.Drive
			}
			if bufs.upsizePass(g, &timer, rep, opts, rng, &res) == 0 {
				break
			}
			// Discovery order: no pass of these two runs has a tie across
			// its cut, so none sorts its candidates.
			if !slices.Equal(bufs.cands, want) {
				t.Fatalf("%s pass %d: %d candidates from pruned cones, %d from whole ones, or scores or order differ", spec.Name, passes, len(bufs.cands), len(want))
			}
			if a, b := rng.Int63(), refRng.Int63(); a != b {
				t.Fatalf("%s pass %d: the pass and the reference drew differently", spec.Name, passes)
			}
			sortCands(want)
			var resized, wantResized []int
			for i := range n.Insts {
				if n.Insts[i].Cell.Drive != drive[i] {
					resized = append(resized, i)
				}
			}
			for _, c := range want[:len(want)/3+1] {
				wantResized = append(wantResized, c.inst)
			}
			slices.Sort(wantResized)
			if !slices.Equal(resized, wantResized) {
				t.Fatalf("%s pass %d: resized %d cells, the sorted reference's top third is %d, or they differ", spec.Name, passes, len(resized), len(wantResized))
			}
			// The last endpoint's cone, had it been walked alone.
			last := bufs.viol[min(int(float64(len(bufs.viol))*opts.UpsizeFrac)+1, len(bufs.viol))-1]
			if whole := faninConeRef(n, last.Net, 6); len(bufs.walk.cone) < len(whole) {
				pruned++
			}
		}
		if passes != 6*opts.Effort || pruned == 0 {
			t.Fatalf("%s: %d passes compared, %d with a pruned last cone; want all %d and some pruning", spec.Name, passes, pruned, 6*opts.Effort)
		}
	}
}

// TestSortCandsMatchesSortSlice pins sortCands to the permutation of the
// sort.Slice call it replaced, on slices full of tied scores (where an
// unstable sort is free to differ) of every length class pdqsort treats
// differently.
func TestSortCandsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(400)
		if trial%10 == 0 {
			n = 400 + rng.Intn(4000)
		}
		distinct := 1 + rng.Intn(n/3+1)
		a := make([]cand, n)
		for i := range a {
			a[i] = cand{inst: i, score: float64(rng.Intn(distinct)) / 7}
		}
		b := slices.Clone(a)
		sort.Slice(a, func(i, j int) bool { return a[i].score > a[j].score })
		sortCands(b)
		if !slices.Equal(a, b) {
			t.Fatalf("trial %d (%d candidates, %d distinct scores): slices.SortFunc and sort.Slice permute differently", trial, n, distinct)
		}
	}
}

// TestUpsizePassAllocsIndependentOfEndpoints guards the pass against a
// return of per-endpoint allocation: hundreds of violating endpoints,
// a few dozen objects (52 when written; the map-based walk made thousands).
func TestUpsizePassAllocsIndependentOfEndpoints(t *testing.T) {
	opts := Options{TargetFreqGHz: 1.2, Seed: 1}.withDefaults()
	design := netlist.Generate(cellib.Default14nm(), netlist.PulpinoProxy(1))
	design.ClockPeriodPs = 1000 / opts.TargetFreqGHz
	var timer sta.Analyzer
	rep := timer.Analyze(sta.Compile(design), sta.Config{Engine: sta.Fast})
	violating := 0
	for _, ep := range rep.Endpoints {
		if ep.SlackPs < 0 {
			violating++
		}
	}
	if violating < 100 {
		t.Fatalf("only %d violating endpoints; the guard needs a few hundred", violating)
	}
	rng := rand.New(rand.NewSource(1))
	var res Result
	allocs := testing.AllocsPerRun(5, func() {
		if new(passBuffers).upsizePass(sta.Compile(design.Clone()), &timer, rep, opts, rng, &res) == 0 {
			t.Fatal("pass changed nothing")
		}
	})
	cloneAllocs := testing.AllocsPerRun(5, func() { sta.Compile(design.Clone()) })
	if got := allocs - cloneAllocs; got > 100 {
		t.Fatalf("upsizePass made %.0f allocations for %d violating endpoints; want O(1)", got, violating)
	}
}

// TestTopThirdMatchesSort: the set topThird picks is the first len/3+1 of
// sortCands' order, on slices full of tied scores and on the smallest
// ones, and it sorts — the only thing that reorders the candidates —
// exactly when a tie straddles the cut (or a score is NaN), which the
// generator makes often.
func TestTopThirdMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b passBuffers
	sorted, unsorted := 0, 0
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(400)
		switch {
		case trial < 40:
			n = trial / 10 // 0, 1, 2, 3
		case trial%10 == 0:
			n = 400 + rng.Intn(4000)
		}
		distinct := 1 + rng.Intn(n/3+1) // 1: all scores equal
		if trial%4 == 1 {
			distinct = 100 * (n + 1) // ties rare
		}
		cands := make([]cand, n)
		for i := range cands {
			cands[i] = cand{inst: i, score: float64(rng.Intn(distinct)) / 7}
		}
		nan := trial%50 == 7 && n > 0
		if nan {
			cands[rng.Intn(n)].score = math.NaN() // no order to cut: the sort decides, as a tie
		}
		found, want := slices.Clone(cands), slices.Clone(cands)
		sortCands(want)
		budget := min(n/3+1, n)
		straddles := nan || budget < n && !(want[budget-1].score > want[budget].score)

		var got, wantSet []int
		for _, c := range b.topThird(cands) {
			got = append(got, c.inst)
		}
		for _, c := range want[:budget] {
			wantSet = append(wantSet, c.inst)
		}
		slices.Sort(got)
		slices.Sort(wantSet)
		if !slices.Equal(got, wantSet) {
			t.Fatalf("trial %d (%d candidates, %d distinct scores, tie across the cut %v): topThird picked %d, the first %d of the sort are another set",
				trial, n, distinct, straddles, len(got), budget)
		}
		same := func(a, b cand) bool { return a.inst == b.inst } // a NaN score is not == itself
		if straddles {
			sorted++
			if !slices.EqualFunc(cands, want, same) {
				t.Fatalf("trial %d: a tie straddles the cut and topThird did not sort", trial)
			}
		} else {
			unsorted++
			if !slices.EqualFunc(cands, found, same) {
				t.Fatalf("trial %d: no tie across the cut and topThird reordered the candidates", trial)
			}
		}
	}
	if sorted < 100 || unsorted < 100 {
		t.Fatalf("%d trials sorted, %d did not: the generator should make both common", sorted, unsorted)
	}
}

// TestSynthRunAllocs: a soc-proxy synthesis allocates its clone, one
// compiled timing graph, one analysis workspace holding the one report
// every analysis fills, and pass buffers sized once — 5.6 MB when
// written, of which the clone is 3.8 — and not the 9.9 MB it took when
// every analysis made its own report, endpoints and sorted copy and the
// pass buffers grew by append, nor the 16.8 MB of every pass making its own
// state, level order and register list.
func TestSynthRunAllocs(t *testing.T) {
	soc := socProxy()
	design := netlist.Generate(cellib.Default14nm(), soc)
	bytesOf := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	clone := bytesOf(func() { design.Clone() })
	var res Result
	run := bytesOf(func() { res = Run(design, Options{TargetFreqGHz: 0.5, Effort: 2, Seed: 1}) })
	if res.Passes != 12 {
		t.Fatalf("%d passes; the bound is for 12", res.Passes)
	}
	const passesBudget = 2 << 20
	if run > clone+passesBudget {
		t.Fatalf("Run allocated %.1f MB, %.1f of it the clone; want no more than %d MB on top of the clone",
			float64(run)/(1<<20), float64(clone)/(1<<20), passesBudget>>20)
	}
}

// BenchmarkSynthRun times one synthesis of a ten-times-pulpino design —
// the soc-proxy of the repo benchmark — at the flow's default effort.
func BenchmarkSynthRun(b *testing.B) {
	design := netlist.Generate(cellib.Default14nm(), socProxy())
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = Run(design, Options{TargetFreqGHz: 0.5, Effort: 2, Seed: 1})
	}
	b.ReportMetric(float64(res.Passes), "passes")
	b.ReportMetric(float64(res.Upsized), "upsized")
}
