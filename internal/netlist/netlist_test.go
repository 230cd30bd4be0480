package netlist

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cellib"
)

func genAll(t *testing.T) map[string]*Netlist {
	t.Helper()
	lib := cellib.Default14nm()
	return map[string]*Netlist{
		"tiny":     Generate(lib, Tiny(1)),
		"pulpino":  Generate(lib, PulpinoProxy(2)),
		"artifact": Generate(lib, Artificial(3)),
	}
}

func TestGenerateValid(t *testing.T) {
	for name, n := range genAll(t) {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	lib := cellib.Default14nm()
	a := Generate(lib, PulpinoProxy(7))
	b := Generate(lib, PulpinoProxy(7))
	if len(a.Insts) != len(b.Insts) || len(a.Nets) != len(b.Nets) {
		t.Fatalf("same seed produced different sizes: %d/%d vs %d/%d",
			len(a.Insts), len(a.Nets), len(b.Insts), len(b.Nets))
	}
	for i := range a.Insts {
		if a.Insts[i].Cell.Name != b.Insts[i].Cell.Name {
			t.Fatalf("inst %d differs: %s vs %s", i, a.Insts[i].Cell.Name, b.Insts[i].Cell.Name)
		}
	}
	c := Generate(lib, PulpinoProxy(8))
	same := true
	for i := range a.Insts {
		if i >= len(c.Insts) || a.Insts[i].Cell.Name != c.Insts[i].Cell.Name {
			same = false
			break
		}
	}
	if same && len(a.Insts) == len(c.Insts) {
		t.Error("different seeds produced identical netlists")
	}
}

func TestGenerateSizes(t *testing.T) {
	lib := cellib.Default14nm()
	spec := PulpinoProxy(1)
	n := Generate(lib, spec)
	stats := n.ComputeStats()
	if stats.Registers != spec.NumFFs {
		t.Errorf("registers = %d, want %d", stats.Registers, spec.NumFFs)
	}
	comb := stats.Cells - stats.Registers
	if comb < spec.NumComb*9/10 || comb > spec.NumComb*11/10 {
		t.Errorf("comb cells = %d, want ~%d", comb, spec.NumComb)
	}
	if stats.MaxLevel != spec.Levels {
		t.Errorf("max level = %d, want %d", stats.MaxLevel, spec.Levels)
	}
	if stats.AvgFanout <= 0 {
		t.Error("avg fanout must be positive")
	}
}

func TestClockNetCoversNoCombinational(t *testing.T) {
	n := Generate(cellib.Default14nm(), Tiny(5))
	if n.ClockNet < 0 {
		t.Fatal("no clock net")
	}
	if !n.Nets[n.ClockNet].IsClock {
		t.Fatal("clock net not flagged")
	}
}

func TestTopoOrderRespectsLevels(t *testing.T) {
	n := Generate(cellib.Default14nm(), Tiny(5))
	order := n.TopoOrder()
	if len(order) != len(n.Insts) {
		t.Fatalf("topo order has %d entries, want %d", len(order), len(n.Insts))
	}
	seen := make(map[int]bool)
	prev := -1
	for _, id := range order {
		if seen[id] {
			t.Fatalf("inst %d appears twice", id)
		}
		seen[id] = true
		if n.Insts[id].Level < prev {
			t.Fatalf("levels not ascending in topo order")
		}
		prev = n.Insts[id].Level
	}
}

func TestHPWLProperties(t *testing.T) {
	n := Generate(cellib.Default14nm(), Tiny(9))
	for i := range n.Nets {
		if h := n.HPWL(i); h < 0 {
			t.Fatalf("net %d HPWL %v < 0", i, h)
		}
	}
	// Moving a cell far away must not decrease total HPWL of its nets.
	id := n.Nets[1].Driver
	if id < 0 {
		id = n.Nets[1].Sinks[0].Inst
	}
	before := n.TotalHPWL()
	n.Insts[id].X += 1e4
	after := n.TotalHPWL()
	if after < before {
		t.Errorf("moving a cell 10mm away decreased HPWL: %v -> %v", before, after)
	}
}

func TestHPWLSingletonZero(t *testing.T) {
	lib := cellib.Default14nm()
	n := &Netlist{Lib: lib, ClockNet: -1}
	n.Insts = append(n.Insts, Instance{ID: 0, Cell: lib.Smallest(cellib.Inverter), X: 5, Y: 5})
	n.FaninNet = [][]int{{-1}}
	n.FanoutNet = []int{0}
	n.Nets = []Net{{ID: 0, Driver: 0}}
	if h := n.HPWL(0); h != 0 {
		t.Errorf("singleton net HPWL = %v, want 0", h)
	}
}

// topoOrderBuckets is TopoOrder as it was before the counting sort: one
// appended bucket per level, concatenated.
func topoOrderBuckets(n *Netlist) []int {
	maxLevel := 0
	for i := range n.Insts {
		if n.Insts[i].Level > maxLevel {
			maxLevel = n.Insts[i].Level
		}
	}
	buckets := make([][]int, maxLevel+1)
	for i := range n.Insts {
		buckets[n.Insts[i].Level] = append(buckets[n.Insts[i].Level], i)
	}
	order := make([]int, 0, len(n.Insts))
	for _, b := range buckets {
		order = append(order, b...)
	}
	return order
}

// socScale is the pulpino proxy with ten times the cells (the repo
// benchmark's soc-proxy).
func socScale(seed int64) Spec {
	s := PulpinoProxy(seed)
	s.NumComb *= 10
	s.NumFFs *= 10
	s.NumPIs *= 2
	return s
}

func TestTopoOrderMatchesBucketSort(t *testing.T) {
	lib := cellib.Default14nm()
	for name, n := range map[string]*Netlist{
		"pulpino":   Generate(lib, PulpinoProxy(2)),
		"soc-scale": Generate(lib, socScale(1)),
		"empty":     {Lib: lib, ClockNet: -1},
	} {
		if got, want := n.TopoOrder(), topoOrderBuckets(n); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: TopoOrder differs from the bucket sort (%d vs %d entries)", name, len(got), len(want))
		}
		if allocs := testing.AllocsPerRun(10, func() { n.TopoOrder() }); allocs > 2 {
			t.Errorf("%s: TopoOrder allocates %v times, want <= 2", name, allocs)
		}
	}
}

// TestCloneSlabs: Clone packs all sink and fan-in lists into two slabs.
// The clone must still equal the original, and growing any one list must
// touch neither its slab neighbours nor the original.
func TestCloneSlabs(t *testing.T) {
	lib := cellib.Default14nm()
	n, pristine := Generate(lib, PulpinoProxy(2)), Generate(lib, PulpinoProxy(2))
	c := n.Clone()
	if !reflect.DeepEqual(c, n) {
		t.Fatal("clone differs from the original")
	}
	extra := PinRef{Inst: -7, Pin: -7}
	for i := range c.Nets {
		c.Nets[i].Sinks = append(c.Nets[i].Sinks, extra)
	}
	for i := range c.FaninNet {
		c.FaninNet[i] = append(c.FaninNet[i], -7)
	}
	if !reflect.DeepEqual(n, pristine) {
		t.Fatal("appending to the clone's lists changed the original")
	}
	for i := range c.Nets {
		if want := append(slices.Clone(pristine.Nets[i].Sinks), extra); !reflect.DeepEqual(c.Nets[i].Sinks, want) {
			t.Fatalf("net %d: sinks %v after appending to every list, want %v", i, c.Nets[i].Sinks, want)
		}
	}
	for i := range c.FaninNet {
		if want := append(slices.Clone(pristine.FaninNet[i]), -7); !reflect.DeepEqual(c.FaninNet[i], want) {
			t.Fatalf("inst %d: fan-in nets %v after appending to every list, want %v", i, c.FaninNet[i], want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { n.Clone() }); allocs > 8 {
		t.Errorf("Clone allocates %v times, want <= 8", allocs)
	}
}

func TestCloneIndependence(t *testing.T) {
	lib := cellib.Default14nm()
	n := Generate(lib, Tiny(11))
	c := n.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	origName := n.Insts[3].Cell.Name
	up, _ := lib.Upsize(c.Insts[3].Cell)
	c.Insts[3].Cell = up
	c.Nets[0].Sinks = append(c.Nets[0].Sinks, PinRef{Inst: 1, Pin: 0})
	if n.Insts[3].Cell.Name != origName {
		t.Error("mutating clone changed original instance")
	}
	if len(n.Nets[0].Sinks) == len(c.Nets[0].Sinks) {
		t.Error("mutating clone sinks changed original")
	}
}

func TestNetLoadComponents(t *testing.T) {
	n := Generate(cellib.Default14nm(), Tiny(13))
	for i := range n.Nets {
		load := n.NetLoad(i)
		if load < 0 {
			t.Fatalf("net %d load %v < 0", i, load)
		}
		var pinCap float64
		for _, s := range n.Nets[i].Sinks {
			pinCap += n.Insts[s.Inst].Cell.InputCap
		}
		if load < pinCap {
			t.Fatalf("net %d load %v below pin cap %v", i, load, pinCap)
		}
	}
}

func TestLocalityReducesSpan(t *testing.T) {
	lib := cellib.Default14nm()
	local := Generate(lib, Spec{Name: "l", Seed: 1, NumComb: 600, NumFFs: 60, Levels: 10, Locality: 0.95, NumPIs: 16, ClockPeriodPs: 1000})
	global := Generate(lib, Spec{Name: "g", Seed: 1, NumComb: 600, NumFFs: 60, Levels: 10, Locality: 0.05, NumPIs: 16, ClockPeriodPs: 1000})
	ls, gs := local.ComputeStats(), global.ComputeStats()
	if ls.AvgNetSpan >= gs.AvgNetSpan {
		t.Errorf("high locality should reduce net span: local %v vs global %v", ls.AvgNetSpan, gs.AvgNetSpan)
	}
}

func TestDieSizeUtilization(t *testing.T) {
	n := Generate(cellib.Default14nm(), Tiny(17))
	w, h := DieSize(n, 0.5)
	if math.Abs(w*h*0.5-n.Area()) > 1e-6*n.Area() {
		t.Errorf("die %vx%v at 50%% util does not match area %v", w, h, n.Area())
	}
	w2, _ := DieSize(n, 0) // default utilization
	if w2 <= 0 {
		t.Error("default die size must be positive")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	lib := cellib.Default14nm()
	// drivenNet finds a net with both a driver and at least one sink.
	drivenNet := func(n *Netlist) int {
		for i := range n.Nets {
			if n.Nets[i].Driver >= 0 && len(n.Nets[i].Sinks) > 0 {
				return i
			}
		}
		t.Fatal("no driven net with sinks")
		return -1
	}
	// combEdge finds a combinational driver with a combinational sink.
	combDriver := func(n *Netlist) int {
		for i := range n.Nets {
			net := &n.Nets[i]
			if net.Driver < 0 || net.IsClock || n.Insts[net.Driver].Cell.Class.Sequential() {
				continue
			}
			for _, s := range net.Sinks {
				if !n.Insts[s.Inst].Cell.Class.Sequential() {
					return net.Driver
				}
			}
		}
		t.Fatal("no combinational edge")
		return -1
	}
	cases := map[string]func(n *Netlist){
		"bad fanin ref": func(n *Netlist) {
			s := n.Nets[drivenNet(n)].Sinks[0]
			n.FaninNet[s.Inst][s.Pin] = len(n.Nets) + 3
		},
		"driver fanout":  func(n *Netlist) { n.FanoutNet[n.Nets[drivenNet(n)].Driver] = -1 },
		"sink mismatch":  func(n *Netlist) { n.Nets[drivenNet(n)].Sinks[0].Pin = 99 },
		"inst id":        func(n *Netlist) { n.Insts[2].ID = 0 },
		"level cycle":    func(n *Netlist) { n.Insts[combDriver(n)].Level = 99 },
		"driver range":   func(n *Netlist) { n.Nets[0].Driver = len(n.Insts) + 1 },
		"truncated nets": func(n *Netlist) { n.FaninNet = n.FaninNet[:1] },
	}
	for name, corrupt := range cases {
		n := Generate(lib, Tiny(19))
		if n.Validate() != nil {
			t.Fatal("fresh netlist must validate")
		}
		corrupt(n)
		if n.Validate() == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestGenerateManySeedsAlwaysValid(t *testing.T) {
	lib := cellib.Default14nm()
	f := func(seed int64) bool {
		n := Generate(lib, Tiny(seed))
		return n.Validate() == nil && n.NumCells() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAreaAndLeakagePositive(t *testing.T) {
	n := Generate(cellib.Default14nm(), Tiny(23))
	if n.Area() <= 0 {
		t.Error("area must be positive")
	}
	if n.Leakage() <= 0 {
		t.Error("leakage must be positive")
	}
	if got := len(n.Sequential()); got != 10 {
		t.Errorf("sequential count = %d, want 10", got)
	}
}
