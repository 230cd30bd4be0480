package place

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/netlist"
)

// benchNetlist is the shared placement benchmark workload: a large,
// high-locality design where the annealer's per-move evaluation cost
// dominates. Place re-seeds its own grid from Options.Seed, so reusing
// one netlist across iterations and benchmarks is safe.
var benchNetlist = sync.OnceValue(func() *netlist.Netlist {
	return netlist.Generate(lib(), netlist.Spec{
		Name: "place-bench", Seed: 1,
		NumComb: 6000, NumFFs: 600, Levels: 12,
		Locality: 0.85, NumPIs: 48, ClockPeriodPs: 1500,
	})
})

func benchmarkPlace(b *testing.B, workers int) {
	n := benchNetlist()
	opts := Options{Seed: 7, Moves: 30 * n.NumCells(), Workers: workers}
	var res Result
	var pinsScanned int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, pinsScanned = placeTally(n, opts)
	}
	b.StopTimer()
	b.ReportMetric(float64(res.MovesTried)*float64(b.N)/b.Elapsed().Seconds(), "moves/s")
	// Pin positions read per tried proposal: only commits (and the territory
	// engine's per-epoch rescan) visit pins, evaluating a move never does.
	b.ReportMetric(float64(pinsScanned)/float64(res.MovesTried), "pins_scanned/move")
	// QoR metrics for BenchmarkPlaceGate.
	b.ReportMetric(res.HPWLUm, "hpwl")
	b.ReportMetric(float64(res.MovesAccepted), "accepted")
	if workers > 1 {
		// Worker invariance, for the same gate: the same anneal on a crew
		// of one must land on the same bits.
		opts.Workers = 1
		one, _ := placeTally(n, opts)
		b.ReportMetric(one.HPWLUm, "hpwl_w1")
		b.ReportMetric(float64(one.MovesAccepted), "accepted_w1")
	}
}

// BenchmarkPlaceAnneal is the serial baseline: the commit-every-move
// annealer (Workers == 0) that flows run by default.
func BenchmarkPlaceAnneal(b *testing.B) { benchmarkPlace(b, 0) }

// BenchmarkPlaceParallel is the territory engine with one crew member per
// processor (two at least, so hpwl_w1 compares two different crews).
func BenchmarkPlaceParallel(b *testing.B) { benchmarkPlace(b, max(2, runtime.GOMAXPROCS(0))) }

// benchRuns runs the named benchmarks of this package in a child copy of
// the test binary at the -benchtime and -count their gate has always
// used (testing.Benchmark cannot run inside a running benchmark: both
// hold the testing package's one benchmark lock) and returns each one's
// metrics from its last result line, with ns/op the fastest of its runs.
func benchRuns(b *testing.B, benchtime string, count int, names ...string) []map[string]float64 {
	b.Helper()
	out, err := exec.Command(os.Args[0], "-test.run=^$", "-test.bench=^("+strings.Join(names, "|")+")$",
		"-test.benchtime="+benchtime, "-test.count="+strconv.Itoa(count)).CombinedOutput()
	if err != nil {
		b.Fatalf("%v\n%s", err, out)
	}
	runs := map[string]map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		name, _, _ := strings.Cut(f[0], "-")
		m := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				b.Fatalf("%s: %v", line, err)
			}
			m[f[i+1]] = v
		}
		if prev, ok := runs[name]; ok {
			m["ns/op"] = min(m["ns/op"], prev["ns/op"])
		}
		runs[name] = m
	}
	res := make([]map[string]float64, len(names))
	for i, name := range names {
		if res[i] = runs[name]; res[i] == nil {
			b.Fatalf("no result line for %s in\n%s", name, out)
		}
	}
	return res
}

// BenchmarkPlaceGate holds the territory engine at one worker per
// processor against the serial annealer, min-of-5 each: HPWL at most
// engineVsSerial (1.10x) the serial annealer's, the same bits on a crew
// of one, and on a host with >= 2 CPUs at least 1.05x faster. The bar
// was 1.25x until the O(1) exact move evaluator took a quarter off the
// serial annealer's time and a tenth off the territory engine's, whose
// per-epoch state copies and rescans it does not touch: 44 / 33 ms
// became 34 / 30 ms, ~1.13x.
func BenchmarkPlaceGate(b *testing.B) {
	r := benchRuns(b, "2x", 5, "BenchmarkPlaceAnneal", "BenchmarkPlaceParallel")
	ms, mp := r[0], r[1]
	speedup := ms["ns/op"] / mp["ns/op"]
	b.Logf("place_speedup_x=%.2f (serial %.1f ms, territory %.1f ms, %d CPUs), hpwl %.0f vs serial %.0f",
		speedup, ms["ns/op"]/1e6, mp["ns/op"]/1e6, runtime.NumCPU(), mp["hpwl"], ms["hpwl"])
	if mp["hpwl"] != mp["hpwl_w1"] || mp["accepted"] != mp["accepted_w1"] {
		b.Errorf("place engine not worker-invariant: hpwl %.0f vs %.0f at one worker, accepted %.0f vs %.0f",
			mp["hpwl"], mp["hpwl_w1"], mp["accepted"], mp["accepted_w1"])
	}
	if mp["hpwl"] > engineVsSerial*ms["hpwl"] {
		b.Errorf("territory HPWL %.0f more than %.2fx the serial annealer's %.0f", mp["hpwl"], engineVsSerial, ms["hpwl"])
	}
	if runtime.NumCPU() >= 2 && speedup < 1.05 {
		b.Errorf("place speedup %.2fx over the serial annealer below the 1.05x bound on %d CPUs", speedup, runtime.NumCPU())
	}
}
