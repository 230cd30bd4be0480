package sta

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

// analyzeRef is Analyze as it stood before the Analyzer, kept as the
// reference: a fresh state per call, netlist.TopoOrder and Sequential, and
// every load and length walked off the netlist with n.NetLoad and n.HPWL
// where it is used — three walks of a stage's output net, a fourth per
// endpoint — and the critical path retraced off the netlist. The one thing
// it shares with the engine is the fix of the critical path of a report
// without endpoints.
func analyzeRef(n *netlist.Netlist, cfg Config) *Report {
	r := &Report{Engine: cfg.Engine, PathBased: cfg.PathBased, SI: cfg.SI, WNSPs: math.Inf(1)}
	cellF, wireF, setupF := cfg.Corner.factors()
	derate := (1 + cfg.DeratePct/100) * cellF
	wire := func(netID int, driverResist float64) float64 {
		length, w := n.HPWL(netID), n.Lib.Wire
		if cfg.Engine == Fast {
			return wireF * driverResist * w.CapPerUm * length
		}
		d := w.Delay(length, driverResist)
		if cfg.SI {
			d += 0.35 * w.CapPerUm * length * driverResist
		}
		return wireF * d
	}

	state := make([]arrivalState, len(n.Nets))
	for i := range state {
		state[i] = arrivalState{arrival: math.Inf(-1), from: -1}
	}
	for i := range n.Nets {
		net := &n.Nets[i]
		switch {
		case net.IsClock:
		case net.Driver < 0:
			state[i] = arrivalState{arrival: cfg.InputDelayPs, slew: 30, from: -1}
		case n.Insts[net.Driver].Cell.Class.Sequential():
			drv := n.Insts[net.Driver].Cell
			w := wire(i, drv.Resist)
			state[i] = arrivalState{
				arrival: cfg.skew(net.Driver) + drv.ClkToQ*derate*cfg.instDerate(net.Driver) + w,
				slew:    drv.Slew(n.NetLoad(i)),
				wire:    w,
				from:    -1,
			}
		}
	}
	for _, id := range n.TopoOrder() {
		inst := &n.Insts[id]
		outNet := n.FanoutNet[id]
		if inst.Cell.Class.Sequential() || inst.Level == 0 || outNet < 0 {
			continue
		}
		load := n.NetLoad(outNet)
		best := arrivalState{arrival: math.Inf(-1)}
		for _, faninNet := range n.FaninNet[id] {
			if faninNet < 0 {
				continue
			}
			in := state[faninNet]
			if math.IsInf(in.arrival, -1) {
				continue
			}
			d := inst.Cell.Delay(load)
			if cfg.Engine == Signoff {
				d *= 1 + in.slew/(900/derate)
			}
			d *= derate * cfg.instDerate(id)
			if a := in.arrival + d; a > best.arrival {
				best = arrivalState{arrival: a, slew: inst.Cell.Slew(load), depth: in.depth + 1, wire: in.wire, from: int32(faninNet)}
			}
		}
		if math.IsInf(best.arrival, -1) {
			continue
		}
		w := wire(outNet, inst.Cell.Resist)
		best.arrival += w
		best.wire += w
		state[outNet] = best
	}

	worstNet := -1
	add := func(inst, netID int, required float64) {
		st := state[netID]
		if math.IsInf(st.arrival, -1) {
			return
		}
		ep := Endpoint{
			Inst: inst, Net: netID,
			SlackPs: required - st.arrival, Arrival: st.arrival,
			Depth: int(st.depth), WirePs: st.wire, SlewPs: st.slew,
			FanoutLd: n.NetLoad(netID),
		}
		if cfg.PathBased && cfg.Engine == Signoff {
			ep.SlackPs += math.Min(1.8*float64(ep.Depth), 40)
		}
		r.Endpoints = append(r.Endpoints, ep)
		if ep.SlackPs < r.WNSPs {
			r.WNSPs, worstNet = ep.SlackPs, netID
		}
		if ep.SlackPs < 0 {
			r.TNSPs += ep.SlackPs
			r.Violations++
		}
	}
	for _, ff := range n.Sequential() {
		if dNet := n.FaninNet[ff][0]; dNet >= 0 {
			add(ff, dNet, n.ClockPeriodPs+cfg.skew(ff)-n.Insts[ff].Cell.SetupTime*(1+cfg.DeratePct/100)*setupF)
		}
	}
	for i := range n.Nets {
		if n.Nets[i].ExternalCap > 0 && !n.Nets[i].IsClock {
			add(-1, i, n.ClockPeriodPs)
		}
	}
	if len(r.Endpoints) == 0 {
		r.WNSPs = n.ClockPeriodPs
	}
	for netID := worstNet; netID >= 0; netID = int(state[netID].from) {
		drv := n.Nets[netID].Driver
		if drv < 0 {
			break
		}
		r.CriticalPath = append([]int{drv}, r.CriticalPath...)
		if n.Insts[drv].Cell.Class.Sequential() {
			break
		}
	}
	if worstArrival := n.ClockPeriodPs - r.WNSPs; worstArrival > 0 {
		r.MaxFreqGHz = 1000 / worstArrival
	}
	r.CostUnits = costUnits(n, &cfg)
	return r
}

// socProxy is the repo benchmark's soc-proxy: ten pulpinos.
func socProxy(seed int64) netlist.Spec {
	spec := netlist.PulpinoProxy(seed)
	spec.NumComb *= 10
	spec.NumFFs *= 10
	spec.NumPIs *= 2
	return spec
}

// requireRef holds one reused Analyzer to the reference and to a one-shot
// analysis — whole reports, every field of every endpoint and the
// ascending-slack view, bit for bit — and its load table to the netlist.
func requireRef(t *testing.T, tag string, a *Analyzer, n *netlist.Netlist, cfg Config) *Report {
	t.Helper()
	got, ref, fresh := a.Analyze(Compile(n), cfg), analyzeRef(n, cfg), Analyze(n, cfg)
	for _, r := range []*Report{got, ref, fresh} {
		r.WorstEndpoints(0) // the sort view built, so the reused report's storage is in use
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: the reused Analyzer's report differs from the reference\n got WNS %v TNS %v, %d endpoints, path %v\n ref WNS %v TNS %v, %d endpoints, path %v",
			tag, got.WNSPs, got.TNSPs, len(got.Endpoints), got.CriticalPath, ref.WNSPs, ref.TNSPs, len(ref.Endpoints), ref.CriticalPath)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("%s: the reused Analyzer's report differs from a one-shot Analyze", tag)
	}
	for i := range n.Nets {
		if got, want := a.Load(i), n.NetLoad(i); got != want {
			t.Fatalf("%s: Load(%d) = %v, NetLoad %v", tag, i, got, want)
		}
	}
	return got
}

// TestAnalyzerMatchesReference drives one Analyzer through everything
// that may change between two of its analyses — cell sizes, the netlist's
// size and levels, another netlist altogether, the placement, and each
// dimension of Config — and holds every report to analyzeRef.
func TestAnalyzerMatchesReference(t *testing.T) {
	lib := cellib.Default14nm()
	var a Analyzer // one workspace for the whole test
	rng := rand.New(rand.NewSource(9))

	// The shape of a synthesis: a dozen fast analyses of one netlist, a
	// third of the cells on the worst paths upsized between them. (The real
	// passes are held to a one-shot Analyze and to NetLoad in synth's
	// TestUpsizePassMatchesWholeCones; importing synth here is a cycle.)
	var n *netlist.Netlist
	for _, tc := range []struct {
		spec netlist.Spec
		ghz  float64
	}{{netlist.PulpinoProxy(1), 1.2}, {socProxy(1), 0.5}} {
		n = netlist.Generate(lib, tc.spec)
		n.ClockPeriodPs = 1000 / tc.ghz
		for pass := 0; pass < 12; pass++ {
			rep := requireRef(t, fmt.Sprintf("%s pass %d", tc.spec.Name, pass), &a, n, Config{Engine: Fast})
			resized := 0
			for _, ep := range rep.WorstEndpoints(len(rep.Endpoints) / 3) {
				for netID, depth := ep.Net, 0; netID >= 0 && depth < 6; depth++ {
					drv := n.Nets[netID].Driver
					if drv < 0 {
						break
					}
					if up, ok := lib.Upsize(n.Insts[drv].Cell); ok && rng.Intn(3) == 0 {
						n.Insts[drv].Cell = up
						resized++
					}
					netID = n.FaninNet[drv][rng.Intn(len(n.FaninNet[drv]))]
				}
			}
			if resized == 0 {
				t.Fatalf("%s pass %d resized nothing", tc.spec.Name, pass)
			}
		}
	}

	// The arrays grow past the largest netlist analysed so far: buffers and
	// their nets appended to it, levels recomputed.
	buf := lib.Smallest(cellib.Buffer)
	for netID, added := 0, 0; added < 40; netID++ {
		if sinks := n.Nets[netID].Sinks; len(sinks) >= 2 && !n.Nets[netID].IsClock {
			n.InsertBuffer(netID, slices.Clone(sinks[:len(sinks)/2]), buf)
			added++
		}
	}
	if err := n.Relevel(); err != nil {
		t.Fatal(err)
	}
	requireRef(t, "buffered and re-levelled", &a, n, Config{Engine: Signoff, SI: true})

	// A smaller netlist after a larger one: no stale tail leaks, and a net
	// past its end is out of range rather than the larger netlist's.
	small := netlist.Generate(lib, netlist.Tiny(3))
	requireRef(t, "tiny after soc-proxy", &a, small, Config{Engine: Signoff})
	// ... nor a stale head: net 0 of this one is driven by an inverter whose
	// input floats, so nothing writes its arrival and the register it feeds
	// is no endpoint — unless net 0's arrival is still the last netlist's.
	small = &netlist.Netlist{Name: "floating", Lib: lib, ClockNet: -1, ClockPeriodPs: 500}
	inv := small.AddInstance(lib.Smallest(cellib.Inverter), "")
	ff := small.AddInstance(lib.Smallest(cellib.DFF), "")
	small.Connect(small.AddNet(inv, ""), ff, 0)
	small.Nets[small.AddNet(ff, "")].ExternalCap = 2
	if err := small.Relevel(); err != nil {
		t.Fatal(err)
	}
	if rep := requireRef(t, "floating input", &a, small, Config{Engine: Signoff}); len(rep.Endpoints) != 1 || rep.Endpoints[0].Inst != -1 {
		t.Fatalf("floating input: endpoints %+v, want the register's output net alone", rep.Endpoints)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Load past the last analysis's netlist did not panic")
			}
		}()
		a.Load(len(small.Nets))
	}()

	// Unplaced (every cell at the origin: no wire), placed, moved.
	n = netlist.Generate(lib, netlist.Artificial(4))
	placed := slices.Clone(n.Insts)
	for i := range n.Insts {
		n.Insts[i].X, n.Insts[i].Y = 0, 0
	}
	requireRef(t, "unplaced", &a, n, Config{Engine: Signoff, SI: true})
	copy(n.Insts, placed)
	requireRef(t, "placed", &a, n, Config{Engine: Signoff, SI: true})
	for i := range n.Insts {
		n.Insts[i].X += (rng.Float64() - 0.5) * 20
		n.Insts[i].Y += (rng.Float64() - 0.5) * 20
	}
	requireRef(t, "moved", &a, n, Config{Engine: Signoff, SI: true})

	// Every dimension of Config, on a clock that the most optimistic of
	// them violates.
	n.ClockPeriodPs = 1000 / Analyze(n, Config{Engine: Fast, Corner: CornerFF}).MaxFreqGHz * 0.9
	skew, instDerate := make([]float64, len(n.Insts)), make([]float64, len(n.Insts))
	for i := range skew {
		skew[i], instDerate[i] = (rng.Float64()-0.5)*30, 0.9+0.3*rng.Float64()
	}
	instDerate[0], instDerate[1] = 0, -1 // unset spellings
	for i, cfg := range []Config{
		{Engine: Fast},
		{Engine: Signoff},
		{Engine: Fast, SI: true, PathBased: true}, // both ignored by the fast engine
		{Engine: Signoff, SI: true},
		{Engine: Signoff, PathBased: true},
		{Engine: Signoff, ClockSkew: skew},
		{Engine: Fast, ClockSkew: skew[:len(skew)/2]},
		{Engine: Signoff, InputDelayPs: 120},
		{Engine: Fast, DeratePct: 8},
		{Engine: Signoff, DeratePct: 8, InstDerate: instDerate},
		{Engine: Fast, InstDerate: instDerate[:len(instDerate)/2]},
		{Engine: Signoff, Corner: CornerTT},
		{Engine: Signoff, Corner: CornerSS},
		{Engine: Fast, Corner: CornerFF},
		{Engine: Signoff, SI: true, PathBased: true, Corner: CornerSSCold, DeratePct: 5, ClockSkew: skew, InstDerate: instDerate},
	} {
		rep := requireRef(t, fmt.Sprintf("config %d", i), &a, n, cfg)
		if rep.Violations == 0 {
			t.Fatalf("config %d: no violation, so TNS and the violation count go untested", i)
		}
	}
}

// chain builds in0 -> INV -> INV -> (nothing): no register and no external
// load, so no endpoint.
func chain(t *testing.T) *netlist.Netlist {
	t.Helper()
	lib := cellib.Default14nm()
	n := &netlist.Netlist{Name: "chain", Lib: lib, ClockNet: -1, ClockPeriodPs: 1000}
	u0 := n.AddInstance(lib.Smallest(cellib.Inverter), "")
	u1 := n.AddInstance(lib.Smallest(cellib.Inverter), "")
	n.AddNet(u0, "") // net 0: the one a zero-valued worst endpoint names
	n.AddNet(u1, "")
	in := n.AddNet(-1, "in")
	n.Connect(in, u0, 0)
	n.Connect(0, u1, 0)
	if err := n.Relevel(); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestNoEndpointsNoCriticalPath: an analysis that finds no endpoint used to
// retrace a critical path from net 0 — the zero Endpoint's net — where the
// incremental engine, held bit-identical to it, reports none.
func TestNoEndpointsNoCriticalPath(t *testing.T) {
	n := chain(t)
	for _, c := range diffConfigs() {
		full, inc := Analyze(n, c.cfg), NewIncremental(n, c.cfg).Report()
		if full.WNSPs != n.ClockPeriodPs || full.Endpoints != nil || full.CriticalPath != nil {
			t.Fatalf("%s: Analyze without endpoints: WNS %v (period %v), endpoints %v, critical path %v",
				c.name, full.WNSPs, n.ClockPeriodPs, full.Endpoints, full.CriticalPath)
		}
		if inc.Endpoints != nil {
			t.Fatalf("%s: Incremental.Report has endpoints %v", c.name, inc.Endpoints)
		}
		if full.Engine != inc.Engine || full.PathBased != inc.PathBased || full.SI != inc.SI ||
			full.WNSPs != inc.WNSPs || full.TNSPs != inc.TNSPs || full.Violations != inc.Violations ||
			full.MaxFreqGHz != inc.MaxFreqGHz || full.CostUnits != inc.CostUnits ||
			!slices.Equal(full.CriticalPath, inc.CriticalPath) {
			t.Fatalf("%s: Analyze and Incremental.Report differ on a netlist without endpoints:\n full %+v\n inc  %+v", c.name, full, inc)
		}
	}
}

// TestWorstEndpointsMatchesSortSlice pins WorstEndpoints' key sort to the
// permutation of the sort.Slice on the endpoint structs it replaced, on
// slices full of tied slacks (where an unstable sort is free to differ) of
// every length class pdqsort treats differently.
func TestWorstEndpointsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(400)
		if trial%10 == 0 {
			n = 400 + rng.Intn(4000)
		}
		distinct := 1 + rng.Intn(n/3+1)
		eps := make([]Endpoint, n)
		for i := range eps {
			eps[i] = Endpoint{Inst: i, Net: n - i, SlackPs: float64(rng.Intn(distinct))/7 - 3, Depth: rng.Intn(9)}
		}
		want := slices.Clone(eps)
		sort.Slice(want, func(i, j int) bool { return want[i].SlackPs < want[j].SlackPs })
		r := &Report{Endpoints: eps}
		if got := r.WorstEndpoints(n); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d endpoints, %d distinct slacks): the key sort and sort.Slice permute differently", trial, n, distinct)
		}
		if k := n / 2; !slices.Equal(r.WorstEndpoints(k), want[:k]) || len(r.WorstEndpoints(n+5)) != n {
			t.Fatalf("trial %d: WorstEndpoints(k) is not the first k of the sorted view", trial)
		}
		if !slices.EqualFunc(r.Endpoints, eps, func(a, b Endpoint) bool { return a == b }) || (n > 0 && &r.Endpoints[0] != &eps[0]) {
			t.Fatalf("trial %d: WorstEndpoints reordered the report's own Endpoints", trial)
		}
	}
}

// BenchmarkAnalyzeFast times the analysis synthesis repeats — the fast
// engine at soc-proxy scale — unplaced (no wire) and placed, one-shot and
// on a reused Analyzer.
func BenchmarkAnalyzeFast(b *testing.B) {
	placed := netlist.Generate(cellib.Default14nm(), socProxy(1))
	unplaced := placed.Clone()
	for i := range unplaced.Insts {
		unplaced.Insts[i].X, unplaced.Insts[i].Y = 0, 0
	}
	for _, d := range []struct {
		name string
		n    *netlist.Netlist
	}{{"unplaced", unplaced}, {"placed", placed}} {
		b.Run(d.name+"/oneshot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Analyze(d.n, Config{Engine: Fast})
			}
		})
		b.Run(d.name+"/reused", func(b *testing.B) {
			var a Analyzer
			g := Compile(d.n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Analyze(g, Config{Engine: Fast})
			}
		})
	}
}
