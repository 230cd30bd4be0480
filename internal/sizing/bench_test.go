package sizing

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// benchEngine is the signoff configuration the flow runs in-loop.
var benchEngine = sta.Config{Engine: sta.Signoff, SI: true}

// benchDesign is the shared pulpino-proxy recovery workload: oversized
// cells and a relaxed clock, so Recover evaluates many candidates.
func benchDesign(b *testing.B) *netlist.Netlist {
	return looseDesign(b, cellib.Default14nm(), netlist.PulpinoProxy(7), benchEngine, 7)
}

func benchRecover(b *testing.B, force bool) {
	base := benchDesign(b)
	var res Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := base.Clone()
		b.StartTimer()
		res = Recover(n, Config{Seed: 7, MaxPasses: 2, Engine: &benchEngine, ForceFullSTA: force})
	}
	// Both variants must land on the same netlist; BenchmarkRecoverGate
	// compares these.
	b.ReportMetric(res.AreaAfter, "area_um2")
	b.ReportMetric(res.WNSAfter, "wns_ps")
}

// BenchmarkRecoverFull is the pre-incremental baseline: one full
// Analyze per candidate downsize.
func BenchmarkRecoverFull(b *testing.B) { benchRecover(b, true) }

// BenchmarkRecoverIncremental is the same recovery on sta.Incremental.
func BenchmarkRecoverIncremental(b *testing.B) { benchRecover(b, false) }

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

// BenchmarkRecoverGate: recovery on the incremental engine must be at
// least 10x faster than on full re-analysis and land on the identical
// final area and WNS. The ratio read 17-22x until the full analysis — the
// numerator — learned to walk each net's pins once (-40 %), while an
// incremental update, already touching few nets, saved the same walks on
// those alone (-22 %): 524 / 31 ms became 311 / 24 ms on one host. The
// ratio fell because the baseline got faster; the bound stays at 10x.
func BenchmarkRecoverGate(b *testing.B) {
	r := benchRuns(b, "1x", 1, "BenchmarkRecoverFull", "BenchmarkRecoverIncremental")
	full, incr := r[0], r[1]
	speedup := full["ns/op"] / incr["ns/op"]
	b.Logf("sta_recover_speedup_x=%.2f (full %.1f ms, incremental %.1f ms)", speedup, full["ns/op"]/1e6, incr["ns/op"]/1e6)
	if full["area_um2"] != incr["area_um2"] || full["wns_ps"] != incr["wns_ps"] {
		b.Errorf("full/incremental QoR mismatch: area %v vs %v, wns %v vs %v",
			full["area_um2"], incr["area_um2"], full["wns_ps"], incr["wns_ps"])
	}
	if speedup < 10 {
		b.Errorf("sta recover speedup %.2fx below the 10x bound", speedup)
	}
}
