package sta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

// diffTol is the equivalence bound from the acceptance criteria: the
// incremental engine must track the full Analyze oracle within 1e-9 ps
// on WNS, TNS and every endpoint slack. With Epsilon=0 the match is
// expected to be bit-exact except for the Kahan-compensated TNS.
const diffTol = 1e-9

// tightened generates a preset netlist and pulls the clock period in to
// ~97% of the achievable period so a realistic fraction of endpoints
// violate (exercising the TNS/violations bookkeeping, not just WNS).
func tightened(tb testing.TB, spec netlist.Spec, cfg Config) *netlist.Netlist {
	tb.Helper()
	n := netlist.Generate(cellib.Default14nm(), spec)
	rep := Analyze(n, cfg)
	if rep.MaxFreqGHz > 0 {
		n.ClockPeriodPs = (1000 / rep.MaxFreqGHz) * 0.97
	}
	return n
}

func requireMatch(t *testing.T, tag string, step int, n *netlist.Netlist, cfg Config, inc *Incremental) {
	t.Helper()
	full := Analyze(n, cfg)
	if d := math.Abs(full.WNSPs - inc.WNSPs()); d > diffTol {
		t.Fatalf("%s step %d: WNS diverged: full=%.12f inc=%.12f (|d|=%g)", tag, step, full.WNSPs, inc.WNSPs(), d)
	}
	if d := math.Abs(full.TNSPs - inc.TNSPs()); d > diffTol {
		t.Fatalf("%s step %d: TNS diverged: full=%.12f inc=%.12f (|d|=%g)", tag, step, full.TNSPs, inc.TNSPs(), d)
	}
	if full.Violations != inc.Violations() {
		t.Fatalf("%s step %d: violations diverged: full=%d inc=%d", tag, step, full.Violations, inc.Violations())
	}
	eps := inc.Endpoints()
	if len(full.Endpoints) != len(eps) {
		t.Fatalf("%s step %d: endpoint count diverged: full=%d inc=%d", tag, step, len(full.Endpoints), len(eps))
	}
	for i := range eps {
		f, g := full.Endpoints[i], eps[i]
		if f.Inst != g.Inst || f.Net != g.Net {
			t.Fatalf("%s step %d: endpoint %d identity diverged: full=(%d,%d) inc=(%d,%d)",
				tag, step, i, f.Inst, f.Net, g.Inst, g.Net)
		}
		if math.Abs(f.SlackPs-g.SlackPs) > diffTol || math.Abs(f.Arrival-g.Arrival) > diffTol ||
			math.Abs(f.SlewPs-g.SlewPs) > diffTol || math.Abs(f.WirePs-g.WirePs) > diffTol ||
			f.Depth != g.Depth {
			t.Fatalf("%s step %d: endpoint %d (inst %d) diverged:\n full %+v\n inc  %+v", tag, step, i, f.Inst, f, g)
		}
	}
}

// mutator applies one randomized netlist/timing mutation.
type mutator struct {
	n   *netlist.Netlist
	inc *Incremental
	rng *rand.Rand
}

func (m *mutator) resize(id int) bool {
	cell := m.n.Insts[id].Cell
	var next cellib.Cell
	var ok bool
	if m.rng.Intn(2) == 0 {
		next, ok = m.n.Lib.Upsize(cell)
		if !ok {
			next, ok = m.n.Lib.Downsize(cell)
		}
	} else {
		next, ok = m.n.Lib.Downsize(cell)
		if !ok {
			next, ok = m.n.Lib.Upsize(cell)
		}
	}
	if !ok {
		return false
	}
	m.n.Insts[id].Cell = next
	m.inc.Resize(id)
	return true
}

func (m *mutator) step() {
	if m.rng.Float64() < 0.80 {
		m.resize(m.rng.Intn(len(m.n.Insts)))
		return
	}
	// Speculative probe: a burst of resizes under a checkpoint, then
	// roll everything back (engine state via Rollback, the netlist by
	// the caller, mirroring Recover's reject path).
	type undo struct {
		id   int
		cell cellib.Cell
	}
	var undos []undo
	m.inc.Checkpoint()
	for k := 1 + m.rng.Intn(3); k > 0; k-- {
		id := m.rng.Intn(len(m.n.Insts))
		prev := m.n.Insts[id].Cell
		if m.resize(id) {
			undos = append(undos, undo{id, prev})
		}
	}
	_ = m.inc.WNSPs() // query mid-speculation, as Recover does
	for i := len(undos) - 1; i >= 0; i-- {
		m.n.Insts[undos[i].id].Cell = undos[i].cell
	}
	m.inc.Rollback()
}

// diffConfigs spans both engines, SI, path-based recovery, global
// derates and a non-typical corner — the dimensions the endpoint math
// branches on.
func diffConfigs() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"fast", Config{Engine: Fast}},
		{"signoff_si", Config{Engine: Signoff, SI: true}},
		{"signoff_pba_derate", Config{Engine: Signoff, PathBased: true, DeratePct: 8}},
		{"signoff_si_pba_ss", Config{Engine: Signoff, SI: true, PathBased: true, Corner: CornerSS}},
	}
}

// TestIncrementalDifferential interleaves resizes and speculative
// rollbacks on a netlist with per-instance derates, checking the
// incremental engine against a fresh full Analyze after every step. Step counts across
// the preset/config grid total >= 1000.
func TestIncrementalDifferential(t *testing.T) {
	presets := []struct {
		name  string
		spec  netlist.Spec
		steps int
		fast  bool // run only the two cheap configs (larger design)
	}{
		{"tiny", netlist.Tiny(11), 120, false},
		{"artificial", netlist.Artificial(12), 80, false},
		{"pulpino", netlist.PulpinoProxy(13), 120, true},
	}
	total := 0
	for _, p := range presets {
		for ci, c := range diffConfigs() {
			if p.fast && ci >= 2 {
				continue
			}
			tag := p.name + "/" + c.name
			t.Run(tag, func(t *testing.T) {
				cfg := c.cfg
				n := tightened(t, p.spec, cfg)
				rng := rand.New(rand.NewSource(int64(len(tag)) * 1009))
				cfg.InstDerate = make([]float64, len(n.Insts))
				for id := range cfg.InstDerate {
					cfg.InstDerate[id] = 0.9 + 0.3*rng.Float64()
				}
				m := &mutator{n: n, inc: NewIncremental(n, cfg), rng: rng}
				for s := 0; s < p.steps; s++ {
					m.step()
					requireMatch(t, tag, s, n, cfg, m.inc)
				}
				// The critical path must also agree at the end.
				full := Analyze(n, cfg)
				rep := m.inc.Report()
				if len(full.CriticalPath) != len(rep.CriticalPath) {
					t.Fatalf("%s: critical path length diverged: full=%v inc=%v", tag, full.CriticalPath, rep.CriticalPath)
				}
				for i := range full.CriticalPath {
					if full.CriticalPath[i] != rep.CriticalPath[i] {
						t.Fatalf("%s: critical path diverged: full=%v inc=%v", tag, full.CriticalPath, rep.CriticalPath)
					}
				}
			})
			total += p.steps
			if p.fast && ci >= 1 {
				break
			}
		}
	}
	if total < 1000 {
		t.Fatalf("differential grid covers only %d steps, want >= 1000", total)
	}
}

// TestCheckpointRollbackRestoresExactly verifies Rollback restores the
// engine bit-for-bit: every endpoint struct, TNS, violations and WNS
// must equal their pre-checkpoint values after a burst of speculative
// mutations is rolled back.
func TestCheckpointRollbackRestoresExactly(t *testing.T) {
	cfg := Config{Engine: Signoff, SI: true}
	n := tightened(t, netlist.Artificial(21), cfg)
	inc := NewIncremental(n, cfg)
	rng := rand.New(rand.NewSource(21))

	before := append([]Endpoint(nil), inc.Endpoints()...)
	wns, tns, viol := inc.WNSPs(), inc.TNSPs(), inc.Violations()

	inc.Checkpoint()
	var cells []cellib.Cell
	var ids []int
	for k := 0; k < 25; k++ {
		id := rng.Intn(len(n.Insts))
		if up, ok := n.Lib.Upsize(n.Insts[id].Cell); ok {
			cells = append(cells, n.Insts[id].Cell)
			ids = append(ids, id)
			n.Insts[id].Cell = up
			inc.Resize(id)
		}
	}
	for i := len(ids) - 1; i >= 0; i-- {
		n.Insts[ids[i]].Cell = cells[i]
	}
	inc.Rollback()

	if inc.WNSPs() != wns || inc.TNSPs() != tns || inc.Violations() != viol {
		t.Fatalf("rollback did not restore scalars: wns %v->%v tns %v->%v viol %d->%d",
			wns, inc.WNSPs(), tns, inc.TNSPs(), viol, inc.Violations())
	}
	after := inc.Endpoints()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rollback did not restore endpoint %d: %+v -> %+v", i, before[i], after[i])
		}
	}
	// And the rolled-back engine must still track the oracle.
	requireMatch(t, "rollback", 0, n, cfg, inc)
}

func TestNestedCheckpointPanics(t *testing.T) {
	n := netlist.Generate(cellib.Default14nm(), netlist.Tiny(3))
	inc := NewIncremental(n, Config{Engine: Fast})
	inc.Checkpoint()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Checkpoint did not panic")
		}
	}()
	inc.Checkpoint()
}

// TestCloneIndependent checks a Clone tracks its own netlist and is not
// aliased to the original's state (the Annealer relies on this for
// gwtw population cloning).
func TestCloneIndependent(t *testing.T) {
	cfg := Config{Engine: Fast}
	n := tightened(t, netlist.Tiny(31), cfg)
	inc := NewIncremental(n, cfg)

	n2 := n.Clone()
	inc2 := inc.Clone(n2)

	rng := rand.New(rand.NewSource(31))
	for k := 0; k < 40; k++ {
		id := rng.Intn(len(n.Insts))
		if up, ok := n.Lib.Upsize(n.Insts[id].Cell); ok {
			n.Insts[id].Cell = up
			inc.Resize(id)
		}
	}
	requireMatch(t, "clone-orig", 0, n, cfg, inc)
	requireMatch(t, "clone-copy", 0, n2, cfg, inc2)

	if down, ok := n2.Lib.Downsize(n2.Insts[0].Cell); ok {
		n2.Insts[0].Cell = down
		inc2.Resize(0)
	}
	requireMatch(t, "clone-copy-mut", 0, n2, cfg, inc2)
}

// BenchmarkIncrementalResize measures a single toggle-resize + WNS
// query at pulpino-proxy scale — the inner-loop unit of sizing.Recover.
func BenchmarkIncrementalResize(b *testing.B) {
	cfg := Config{Engine: Signoff, SI: true}
	n := tightened(b, netlist.PulpinoProxy(5), cfg)
	inc := NewIncremental(n, cfg)
	rng := rand.New(rand.NewSource(5))
	ids := make([]int, 256)
	for i := range ids {
		ids[i] = rng.Intn(len(n.Insts))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		cell := n.Insts[id].Cell
		next, ok := n.Lib.Upsize(cell)
		if !ok {
			next, ok = n.Lib.Downsize(cell)
		}
		if !ok {
			continue
		}
		n.Insts[id].Cell = next
		inc.Resize(id)
		_ = inc.WNSPs()
		n.Insts[id].Cell = cell
		inc.Resize(id)
	}
}
