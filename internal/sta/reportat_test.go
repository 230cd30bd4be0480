package sta

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

// sameBits fails unless two reports agree bit for bit: reflect.DeepEqual,
// which reads +0 and -0 as equal, then the scalars' bits.
func sameBits(t *testing.T, tag string, got, want *Report) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: report differs\n got WNS %v TNS %v viol %d, %d endpoints, path %v\nwant WNS %v TNS %v viol %d, %d endpoints, path %v",
			tag, got.WNSPs, got.TNSPs, got.Violations, len(got.Endpoints), got.CriticalPath,
			want.WNSPs, want.TNSPs, want.Violations, len(want.Endpoints), want.CriticalPath)
	}
	for _, f := range [][2]float64{{got.WNSPs, want.WNSPs}, {got.TNSPs, want.TNSPs}, {got.MaxFreqGHz, want.MaxFreqGHz}, {got.CostUnits, want.CostUnits}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Fatalf("%s: scalar %v, want %v bit for bit", tag, f[0], f[1])
		}
	}
	for i := range got.Endpoints {
		if g, w := got.Endpoints[i].SlackPs, want.Endpoints[i].SlackPs; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: endpoint %d slack %v, want %v bit for bit", tag, i, g, w)
		}
	}
}

// TestReportAtMatchesAnalyze: the report an analysis gives at another clock
// period is what a fresh Analyze of the netlist at that period returns, bit
// for bit — for both engines, SI on and off, random derates and skews,
// periods from slack to spare down to every endpoint failing, and a netlist
// without endpoints. A second call returns the same report in storage of
// its own, concurrent calls agree, WNSAt is the report's WNS without
// allocating, and none of it moves the analysis.
func TestReportAtMatchesAnalyze(t *testing.T) {
	lib := cellib.Default14nm()
	rng := rand.New(rand.NewSource(45))
	place := func(n *netlist.Netlist) *netlist.Netlist {
		for i := range n.Insts {
			n.Insts[i].X, n.Insts[i].Y = rng.Float64()*200, rng.Float64()*200
		}
		return n
	}
	// No endpoint: an inverter whose output nothing loads.
	none := &netlist.Netlist{Name: "none", Lib: lib, ClockNet: -1, ClockPeriodPs: 500}
	none.AddNet(none.AddInstance(lib.Smallest(cellib.Inverter), ""), "")
	if err := none.Relevel(); err != nil {
		t.Fatal(err)
	}
	designs := []*netlist.Netlist{
		place(netlist.Generate(lib, netlist.PulpinoProxy(1))),
		place(netlist.Generate(lib, netlist.Tiny(2))),
		netlist.Generate(lib, netlist.Artificial(4)),
		none,
	}
	var failing, empty int // reports with every endpoint failing, and with none
	for trial := 0; trial < 24; trial++ {
		n := designs[trial%len(designs)]
		cfg := Config{Engine: Engine(trial / len(designs) % 2), SI: rng.Intn(2) == 0, PathBased: rng.Intn(3) == 0}
		if rng.Intn(4) != 0 {
			cfg.DeratePct = rng.Float64() * 15
		}
		if rng.Intn(2) == 0 {
			cfg.ClockSkew = make([]float64, len(n.Insts))
			for i := range cfg.ClockSkew {
				cfg.ClockSkew[i] = (rng.Float64() - 0.5) * 40
			}
		}
		var a Analyzer
		analysed := a.Analyze(Compile(n), cfg)
		rep, state, load := *analysed, slices.Clone(a.state), slices.Clone(a.load)
		eps, path := slices.Clone(analysed.Endpoints), slices.Clone(analysed.CriticalPath)
		tag := func(p float64) string {
			return fmt.Sprintf("trial %d: %s %s at %g ps", trial, n.Name, cfg.Engine, p)
		}

		// From twice the critical period down to a third of it: slack to
		// spare, the edge, most endpoints failing, all of them.
		crit := 500.0
		if analysed.MaxFreqGHz > 0 {
			crit = 1000 / analysed.MaxFreqGHz
		}
		periods := []float64{n.ClockPeriodPs, 2 * crit, crit, crit * (0.9 + 0.1*rng.Float64()), crit / 3}
		for _, p := range periods {
			m := n.Clone()
			m.ClockPeriodPs = p
			want := Analyze(m, cfg)
			got := a.ReportAt(p)
			sameBits(t, tag(p), got, want)
			switch {
			case want.Endpoints == nil:
				empty++
			case want.Violations == len(want.Endpoints):
				failing++
			}
			again := a.ReportAt(p)
			sameBits(t, tag(p)+" again", again, want)
			if len(got.Endpoints) > 0 && &got.Endpoints[0] == &again.Endpoints[0] {
				t.Fatalf("%s: two reports share endpoint storage", tag(p))
			}
			if w := a.WNSAt(p); math.Float64bits(w) != math.Float64bits(want.WNSPs) {
				t.Fatalf("%s: WNSAt %v, want %v", tag(p), w, want.WNSPs)
			}
			if allocs := testing.AllocsPerRun(20, func() { a.WNSAt(p) }); allocs != 0 {
				t.Fatalf("%s: WNSAt made %v allocations, want 0", tag(p), allocs)
			}
		}

		// Concurrent readers of one analysis agree.
		var wg sync.WaitGroup
		reps := make([]*Report, 4)
		for i := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.WNSAt(periods[i%len(periods)])
				reps[i] = a.ReportAt(periods[3])
			}()
		}
		wg.Wait()
		for _, r := range reps[1:] {
			sameBits(t, tag(periods[3])+" concurrent", r, reps[0])
		}

		if !reflect.DeepEqual(*analysed, rep) || !slices.Equal(analysed.Endpoints, eps) || !slices.Equal(analysed.CriticalPath, path) ||
			!slices.Equal(a.state, state) || !slices.Equal(a.load, load) {
			t.Fatalf("%s: ReportAt or WNSAt moved the analysis", tag(n.ClockPeriodPs))
		}
	}
	if failing == 0 || empty == 0 {
		t.Fatalf("%d reports with every endpoint failing and %d without endpoints; the test needs both", failing, empty)
	}
}
