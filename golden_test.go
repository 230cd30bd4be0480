package repro

// Golden QoR pins. The repo benchmark recomputes its reference hashes
// with the commit under test, so it cannot see QoR drift across commits;
// this table can. testdata/golden_qor.txt was recorded on the commit
// before the place/synth hot loops were rewritten (ISSUE 12), and every
// later kernel change must reproduce it bit for bit. Regenerate only for
// a change that is meant to move QoR (go test -run TestGoldenQoR -update),
// behind scripts/goldenfence: every place and flow row moved with the
// proposal window (half the evaluations; the synth rows and every init=
// have never moved). The rows of the parallel place and route kernels
// (w1, w2, pw2rt4) went with the kernels; every row left is the one the
// serial kernels wrote before them.

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_qor.txt from this build")

const goldenPath = "testdata/golden_qor.txt"

// goldenSpecs are the two pinned designs: the pulpino proxy every
// experiment uses, and a ~3k-cell spec large enough that nets span many
// rows and the annealer's incremental box updates see every case.
func goldenSpecs() []netlist.Spec {
	return []netlist.Spec{
		netlist.PulpinoProxy(1),
		{Name: "mid3k", Seed: 1, NumComb: 2700, NumFFs: 300, Levels: 14, Locality: 0.7, NumPIs: 40, ClockPeriodPs: 1400},
	}
}

func goldenRows() []string {
	var rows []string
	add := func(format string, a ...any) { rows = append(rows, fmt.Sprintf(format, a...)) }
	bits := math.Float64bits
	lib := cellib.Default14nm()
	for _, spec := range goldenSpecs() {
		design := netlist.Generate(lib, spec)
		for seed := int64(1); seed <= 3; seed++ {
			for _, partitions := range []int{1, 2} {
				n := design.Clone()
				r := place.Place(n, place.Options{Seed: seed, Moves: 40 * n.NumCells(), Partitions: partitions})
				add("place/%s/s%d/w0/p%d hpwl=%016x init=%016x tried=%d acc=%d conf=%d batch=%d proxy=%d pproxy=%d placed=%016x",
					spec.Name, seed, partitions, bits(r.HPWLUm), bits(r.InitialHPWLUm),
					r.MovesTried, r.MovesAccepted, r.MovesConflicted,
					r.BatchFinal, r.RuntimeProxy, r.ParallelRuntimeProxy, n.Fingerprint())
			}
			for effort := 1; effort <= 3; effort++ {
				r := synth.Run(design, synth.Options{TargetFreqGHz: 0.9, Effort: effort, Seed: seed})
				add("synth/%s/s%d/e%d area=%016x wns=%016x tns=%016x upsized=%d buffers=%d passes=%d netlist=%016x",
					spec.Name, seed, effort, bits(r.AreaUm2), bits(r.WNSPs), bits(r.TNSPs),
					r.Upsized, r.BuffersAdded, r.Passes, r.Netlist.Fingerprint())
			}
			opts := flow.Options{TargetFreqGHz: 0.5, Seed: seed, SynthEffort: 2}
			r := flow.Run(design, opts)
			p := SweepPoint{FreqGHz: opts.TargetFreqGHz, Seed: seed, Met: r.Met, WNSPs: r.WNSPs, AreaUm2: r.AreaUm2, PowerNW: r.PowerNW, MaxFreqGHz: r.MaxFreqGHz}
			h := fnv.New64a()
			fmt.Fprintf(h, "%g %d %t %g %g %g %g", p.FreqGHz, p.Seed, p.Met, p.WNSPs, p.AreaUm2, p.PowerNW, p.MaxFreqGHz)
			add("flow/%s/s%d/serial point=%016x place=%016x/%d/%d/%d netlist=%016x met=%t wns=%016x area=%016x",
				spec.Name, seed, h.Sum64(), bits(r.Place.HPWLUm),
				r.Place.MovesAccepted, r.Place.MovesConflicted, r.Place.RuntimeProxy, r.Netlist.Fingerprint(),
				r.Met, bits(r.WNSPs), bits(r.AreaUm2))
		}
	}
	return rows
}

func TestGoldenQoR(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12 anneals, 18 syntheses and 6 flows")
	}
	rows := goldenRows()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), goldenPath)
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, _ := strings.Cut(sc.Text(), " ")
		want[key] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Errorf("golden file has %d rows, this build produces %d", len(want), len(rows))
	}
	for _, row := range rows {
		key, got, _ := strings.Cut(row, " ")
		if w, ok := want[key]; !ok {
			t.Errorf("%s: not in %s", key, goldenPath)
		} else if got != w {
			t.Errorf("%s drifted\n got  %s\n want %s", key, got, w)
		}
	}
}
