// Package share implements the IP-preserving sharing mechanisms the
// paper's Sec. 4 calls for: "design owners, foundries and EDA should be
// comfortable that their IP ... is sufficiently protected (e.g., by
// standard anonymization and obfuscation mechanisms)".
//
// Three mechanisms are provided: name scrubbing (remove identifiers),
// full obfuscation (additionally scramble logic function and placement
// detail while preserving the structural attributes ML models consume),
// and proxy generation (a synthetic design matched to a target's
// structural statistics — shareable in place of the real artifact, cf.
// the "classes of (non-infringing) artificial circuits" of footnote 6).
package share

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/num"
)

// Mode selects the anonymization strength.
type Mode int

const (
	// NameScrub replaces all instance/net names with opaque IDs.
	NameScrub Mode = iota
	// Obfuscate additionally permutes logic functions within same-arity
	// cell groups (destroying the design's function) and jitters
	// placement, while preserving topology and size distributions.
	Obfuscate
)

// Anonymize returns an IP-scrubbed deep copy of the design. The original
// is never modified. Structural statistics that drive flow outcomes
// (cell/net counts, fanout distribution, logic depth, area within a few
// percent) are preserved so shared data remains useful for ML.
func Anonymize(n *netlist.Netlist, mode Mode, seed int64) *netlist.Netlist {
	rng := rand.New(num.NewRand(seed))
	out := n.Clone()
	out.Name = fmt.Sprintf("anon-%08x", rng.Uint32())

	// Name scrub: opaque, order-randomized identifiers.
	instPerm := rng.Perm(len(out.Insts))
	for i := range out.Insts {
		out.Insts[i].Name = fmt.Sprintf("g%06d", instPerm[i])
	}
	netPerm := rng.Perm(len(out.Nets))
	for i := range out.Nets {
		out.Nets[i].Name = fmt.Sprintf("w%06d", netPerm[i])
	}

	if mode != Obfuscate {
		return out
	}

	// Function scramble: remap each combinational class to another
	// class with the same input arity (fixed permutation per design,
	// preserving per-class cardinalities in aggregate). Sequential
	// cells and buffers keep their role so the netlist stays legal.
	arityGroups := map[int][]cellib.Class{}
	for _, c := range []cellib.Class{
		cellib.Nand2, cellib.Nor2, cellib.Xor2,
		cellib.Nand3, cellib.Aoi21, cellib.Oai21, cellib.Mux2,
	} {
		arityGroups[c.NumInputs()] = append(arityGroups[c.NumInputs()], c)
	}
	remap := map[cellib.Class]cellib.Class{}
	arities := make([]int, 0, len(arityGroups))
	for a := range arityGroups {
		arities = append(arities, a)
	}
	sort.Ints(arities) // deterministic permutation order per seed
	for _, a := range arities {
		group := arityGroups[a]
		perm := rng.Perm(len(group))
		for i, c := range group {
			remap[c] = group[perm[i]]
		}
	}
	for i := range out.Insts {
		cell := out.Insts[i].Cell
		to, ok := remap[cell.Class]
		if !ok {
			continue
		}
		// Keep the drive strength; swap the function.
		for _, v := range out.Lib.Variants(to) {
			if v.Drive == cell.Drive {
				out.Insts[i].Cell = v
				break
			}
		}
	}

	// Placement jitter: blur exact coordinates (floorplan detail is
	// IP) while keeping locality statistics roughly intact.
	w, h := netlist.DieSize(out, 0.6)
	blur := (w + h) / 2 * 0.02
	for i := range out.Insts {
		out.Insts[i].X += (rng.Float64() - 0.5) * blur
		out.Insts[i].Y += (rng.Float64() - 0.5) * blur
		if out.Insts[i].X < 0 {
			out.Insts[i].X = 0
		}
		if out.Insts[i].Y < 0 {
			out.Insts[i].Y = 0
		}
	}
	return out
}

// LeakCheck reports original identifiers that survive in the anonymized
// design (empty = clean). The design name, instance names and net names
// are checked.
func LeakCheck(orig, anon *netlist.Netlist) []string {
	var leaks []string
	if anon.Name == orig.Name && orig.Name != "" {
		leaks = append(leaks, "design:"+orig.Name)
	}
	origInst := make(map[string]bool, len(orig.Insts))
	for i := range orig.Insts {
		origInst[orig.Insts[i].Name] = true
	}
	for i := range anon.Insts {
		if origInst[anon.Insts[i].Name] {
			leaks = append(leaks, "inst:"+anon.Insts[i].Name)
		}
	}
	origNet := make(map[string]bool, len(orig.Nets))
	for i := range orig.Nets {
		origNet[orig.Nets[i].Name] = true
	}
	for i := range anon.Nets {
		if origNet[anon.Nets[i].Name] {
			leaks = append(leaks, "net:"+anon.Nets[i].Name)
		}
	}
	return leaks
}

// StatsDrift quantifies how far anonymization moved the structural
// statistics (relative differences; all ~0 for NameScrub, small for
// Obfuscate).
type StatsDrift struct {
	Cells     float64
	Nets      float64
	Pins      float64
	AvgFanout float64
	MaxLevel  float64
	Area      float64
}

// Drift compares two designs' structural statistics.
func Drift(orig, anon *netlist.Netlist) StatsDrift {
	a, b := orig.ComputeStats(), anon.ComputeStats()
	rel := func(x, y float64) float64 {
		if x == 0 {
			return 0
		}
		d := (y - x) / x
		if d < 0 {
			return -d
		}
		return d
	}
	return StatsDrift{
		Cells:     rel(float64(a.Cells), float64(b.Cells)),
		Nets:      rel(float64(a.Nets), float64(b.Nets)),
		Pins:      rel(float64(a.Pins), float64(b.Pins)),
		AvgFanout: rel(a.AvgFanout, b.AvgFanout),
		MaxLevel:  rel(float64(a.MaxLevel), float64(b.MaxLevel)),
		Area:      rel(a.TotalArea, b.TotalArea),
	}
}

// Proxy generates a fully synthetic design matched to a target's
// structural statistics: same register and combinational cell counts,
// same logic depth, and locality tuned so the net-span statistic
// matches. The result shares no netlist content with the original.
func Proxy(target netlist.Stats, lib *cellib.Library, seed int64) (*netlist.Netlist, netlist.Spec) {
	spec := netlist.Spec{
		Name:          fmt.Sprintf("proxy-%d", seed),
		Seed:          seed,
		NumComb:       target.Cells - target.Registers,
		NumFFs:        target.Registers,
		Levels:        max(1, target.MaxLevel),
		NumPIs:        max(4, target.Registers/5),
		Locality:      0.6,
		ClockPeriodPs: 1500,
	}
	// Tune locality by bisection against the span statistic.
	lo, hi := 0.05, 0.99
	for iter := 0; iter < 8; iter++ {
		spec.Locality = (lo + hi) / 2
		got := netlist.Generate(lib, spec).ComputeStats().AvgNetSpan
		// Higher locality -> smaller span.
		if got > target.AvgNetSpan {
			lo = spec.Locality
		} else {
			hi = spec.Locality
		}
	}
	return netlist.Generate(lib, spec), spec
}
