package netlist

import (
	"testing"

	"repro/internal/cellib"
)

// naiveIncidence reproduces the nested-slice incidence the placer used
// to build inline: nets touching each instance, deduped, first-seen
// (ascending net) order, clock excluded.
func naiveIncidence(n *Netlist) [][]int {
	netsOf := make([][]int, n.NumCells())
	for i := range n.Nets {
		net := &n.Nets[i]
		if net.IsClock {
			continue
		}
		if net.Driver >= 0 {
			netsOf[net.Driver] = append(netsOf[net.Driver], i)
		}
		for _, s := range net.Sinks {
			netsOf[s.Inst] = append(netsOf[s.Inst], i)
		}
	}
	for i := range netsOf {
		seen := map[int]struct{}{}
		out := netsOf[i][:0]
		for _, x := range netsOf[i] {
			if _, ok := seen[x]; !ok {
				seen[x] = struct{}{}
				out = append(out, x)
			}
		}
		netsOf[i] = out
	}
	return netsOf
}

func TestBuildIncidenceMatchesNaive(t *testing.T) {
	for _, spec := range []Spec{Tiny(1), Artificial(2), PulpinoProxy(3)} {
		n := Generate(cellib.Default14nm(), spec)
		want := naiveIncidence(n)
		inc := n.BuildIncidence()
		for inst := 0; inst < n.NumCells(); inst++ {
			got := inc.Of(inst)
			if len(got) != len(want[inst]) {
				t.Fatalf("%s inst %d: %d nets, want %d", spec.Name, inst, len(got), len(want[inst]))
			}
			for k := range got {
				if int(got[k]) != want[inst][k] {
					t.Fatalf("%s inst %d net %d: %d, want %d", spec.Name, inst, k, got[k], want[inst][k])
				}
			}
		}
	}
}
