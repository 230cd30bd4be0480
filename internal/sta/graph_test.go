package sta

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

// requireGraph holds a compiled graph to n as it stands: every net's
// driver and clock flag, every instance's register flag and connected
// fanins in pin order.
func requireGraph(t *testing.T, tag string, g *Graph, n *netlist.Netlist) {
	t.Helper()
	if g.Netlist() != n || len(g.driver) != len(n.Nets) || len(g.reg) != len(n.Insts) {
		t.Fatalf("%s: the graph is not the netlist's", tag)
	}
	for i := range n.Nets {
		if g.Driver(i) != n.Nets[i].Driver || g.IsClock(i) != n.Nets[i].IsClock {
			t.Fatalf("%s: net %d compiled with driver %d clock %v, netlist has %d %v", tag, i, g.Driver(i), g.IsClock(i), n.Nets[i].Driver, n.Nets[i].IsClock)
		}
	}
	for i := range n.Insts {
		var want []int32
		for _, f := range n.FaninNet[i] {
			if f >= 0 {
				want = append(want, int32(f))
			}
		}
		if got := g.Fanins(i); !slices.Equal(got, want) || g.Sequential(i) != n.Insts[i].Cell.Class.Sequential() {
			t.Fatalf("%s: inst %d compiled with fanins %v, netlist has %v", tag, i, got, want)
		}
	}
}

// TestAnalyzerAcrossGraphs feeds one Analyzer a netlist, then the same
// netlist buffered and re-levelled (compiled anew), resized and moved (on
// the graph compiled before), and last a smaller, different one. Each
// report — read through WorstEndpoints before the next call overwrites it
// — equals a fresh Analyze: every field, the ascending-slack order and the
// critical path. And each graph is its netlist's as it stands, so one
// compiled before a resize or a move still is. Last, a netlist whose levels
// do not order its stages reads the same as from a fresh Analyze.
func TestAnalyzerAcrossGraphs(t *testing.T) {
	lib := cellib.Default14nm()
	rng := rand.New(rand.NewSource(3))
	n := netlist.Generate(lib, netlist.PulpinoProxy(2))
	n.ClockPeriodPs = 700
	cfg := Config{Engine: Signoff, SI: true}
	var a Analyzer

	check := func(tag string, g *Graph) {
		t.Helper()
		n := g.Netlist()
		got, want := a.Analyze(g, cfg), Analyze(n, cfg)
		gotView, wantView := got.WorstEndpoints(len(got.Endpoints)), want.WorstEndpoints(len(want.Endpoints))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the reused Analyzer's report differs from a fresh Analyze\n got WNS %v TNS %v, %d endpoints\n want WNS %v TNS %v, %d endpoints",
				tag, got.WNSPs, got.TNSPs, len(got.Endpoints), want.WNSPs, want.TNSPs, len(want.Endpoints))
		}
		if !slices.Equal(gotView, wantView) {
			t.Fatalf("%s: WorstEndpoints orders differ", tag)
		}
		if !slices.Equal(got.CriticalPath, want.CriticalPath) || len(got.CriticalPath) == 0 {
			t.Fatalf("%s: critical path %v, fresh %v", tag, got.CriticalPath, want.CriticalPath)
		}
		requireGraph(t, tag, g, n)
	}

	check("netlist", Compile(n))

	// Buffers in front of the sinks of the first thirty multi-sink nets:
	// more instances and nets, new levels.
	buf := lib.Smallest(cellib.Buffer)
	for netID, added := 0, 0; added < 30; netID++ {
		if sinks := n.Nets[netID].Sinks; len(sinks) >= 2 && !n.Nets[netID].IsClock {
			n.InsertBuffer(netID, slices.Clone(sinks[:len(sinks)/2]), buf)
			added++
		}
	}
	if err := n.Relevel(); err != nil {
		t.Fatal(err)
	}
	g := Compile(n)
	check("buffered and re-levelled", g)

	resized := 0
	for i := range n.Insts {
		if up, ok := lib.Upsize(n.Insts[i].Cell); ok && rng.Intn(4) == 0 {
			n.Insts[i].Cell = up
			resized++
		}
	}
	if resized == 0 {
		t.Fatal("nothing resized")
	}
	check("resized", g)

	for i := range n.Insts {
		n.Insts[i].X, n.Insts[i].Y = rng.Float64()*200, rng.Float64()*200
	}
	check("placed", g)

	small := netlist.Generate(lib, netlist.Tiny(5))
	small.ClockPeriodPs = 150
	check("smaller, different", Compile(small))

	// Levels left stale by a hand edit: stages read fanins the sweep has
	// not reached yet, which must read as unreached, not as whatever the
	// last analysis left in the reused state.
	stale := netlist.Generate(lib, netlist.PulpinoProxy(4))
	stale.ClockPeriodPs = 700
	for i := range stale.Insts {
		if stale.Insts[i].Level > 2 {
			stale.Insts[i].Level = 1
		}
	}
	check("stale levels", Compile(stale))
}
