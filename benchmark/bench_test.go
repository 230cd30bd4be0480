package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cellib"
)

// smokeBench is the harness at tiny scale: every design is `tiny`,
// every count a handful, one repetition per phase.
func smokeBench(t *testing.T) *bench {
	t.Helper()
	host, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(host.close)
	return &bench{
		env:  &env{lib: cellib.Default14nm(), seed: 1, small: true, tmp: t.TempDir(), rec: newRecorder()},
		reps: 1, trace: -1, outDir: t.TempDir(), host: host,
	}
}

// declared reads the metric and workload names BENCHMARK.json promises.
func declared(t *testing.T) (workloadNames, endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name
		}
		return out
	}
	return names(b.Workloads), names(b.EndToEnd), names(b.PerLayer)
}

// TestSmoke runs every workload in both modes and holds the output to
// what BENCHMARK.json declares: each declared metric exactly once, with
// a well-formed name and a finite value, nothing undeclared, every check
// passing, equal reference hashes where workloads share points, no
// negative self time, and no temp dir left behind.
func TestSmoke(t *testing.T) {
	wantWorkloads, wantE2E, wantLayer := declared(t)
	b := smokeBench(t)
	rows, err := b.runAll(workloads)
	if err != nil {
		t.Fatal(err)
	}
	if exitCode(rows) != 0 {
		t.Error("a clean run must exit 0")
	}
	var gotWorkloads []string
	hashes := map[string]string{}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, r := range rows {
		want := wantE2E
		if r.Mode == "per_layer" {
			want = wantLayer
		} else {
			gotWorkloads = append(gotWorkloads, r.Workload)
		}
		var got []string
		for _, m := range r.Metrics {
			got = append(got, m.Name)
			if !nameOK.MatchString(m.Name) {
				t.Errorf("%s %s: bad metric name %q", r.Workload, r.Mode, m.Name)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s %s: %s = %g is not finite", r.Workload, r.Mode, m.Name, m.Value)
			}
			if strings.HasPrefix(m.Name, "self.") && m.Value < 0 {
				t.Errorf("%s: self time %s = %g is negative", r.Workload, m.Name, m.Value)
			}
		}
		// Equal as lists: every declared name once, in the declared order.
		if !slices.Equal(got, want) {
			t.Errorf("%s %s emits\n%v\nBENCHMARK.json declares\n%v", r.Workload, r.Mode, got, want)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s %s: correct=%t attempted=%d failed=%d", r.Workload, r.Mode, r.Correct, r.Attempted, r.Failed)
		}
		if _, err := r.resultLine(); err != nil {
			t.Errorf("%s %s: result line: %v", r.Workload, r.Mode, err)
		}
		hashes[r.Workload] = r.RefHash
	}
	if !slices.Equal(gotWorkloads, wantWorkloads) {
		t.Errorf("ran %v, BENCHMARK.json declares %v", gotWorkloads, wantWorkloads)
	}
	if hashes["durable_write"] != hashes["durable_resume"] || hashes["durable_write"] != hashes["dist_2node"] {
		t.Errorf("workloads that share a point list disagree on its reference hash: %v", hashes)
	}
	if hashes["soc_cold"] == hashes["durable_write"] {
		t.Error("different point lists share a reference hash")
	}
	if left, _ := os.ReadDir(b.env.tmp); len(left) != 0 {
		t.Errorf("%d journal, warehouse or store dirs left behind, first %s", len(left), left[0].Name())
	}
}

// TestCorruptReferenceFails flips one reference hash and expects the
// point to be counted as failed in every repetition and the exit code to
// be non-zero.
func TestCorruptReferenceFails(t *testing.T) {
	logw = io.Discard
	defer func() { logw = os.Stderr }()
	for _, w := range workloads {
		if w.name != "soc_cold" && w.name != "memo_revisit" {
			continue
		}
		setup := w.setup
		w.setup = func(e *env) (*instance, error) {
			inst, err := setup(e)
			if err == nil {
				inst.ref[0] ^= 1
			}
			return inst, err
		}
		b := smokeBench(t)
		b.trace = 0
		rows, err := b.runWorkload(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := rows[0]
		if r.Correct || r.Failed == 0 || r.FailRatio <= 0 {
			t.Errorf("%s: corrupt reference passed: correct=%t failed=%d", w.name, r.Correct, r.Failed)
		}
		if exitCode(rows) == 0 {
			t.Errorf("%s: corrupt reference must exit non-zero", w.name)
		}
	}
}

// TestSeedChangesInputs: another seed gives other points and hashes,
// the same seed the same ones.
func TestSeedChangesInputs(t *testing.T) {
	hash := func(seed int64) uint64 {
		b := smokeBench(t)
		b.env.seed = seed
		ref, invalid := reference(durableSweep(b.env))
		if invalid != 0 {
			t.Fatalf("seed %d: %d invalid reference netlists", seed, invalid)
		}
		return combine(ref)
	}
	if hash(1) != hash(1) {
		t.Error("the same seed gave different reference hashes")
	}
	if hash(1) == hash(2) {
		t.Error("different seeds gave the same reference hash")
	}
}

// TestHostProbe: a probe after a repetition reads at least once, spends
// about its share of the repetition's time, and every reading is a
// positive factor.
func TestHostProbe(t *testing.T) {
	h, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if got := h.after(nil, 0); len(got) != 1 {
		t.Errorf("a probe after an instant repetition read %d times, want 1", len(got))
	}
	const wall = 1.0
	start := time.Now()
	readings := h.after(nil, wall)
	if spent := time.Since(start).Seconds(); spent < probeShare*wall || len(readings) < 2 {
		t.Errorf("%d readings in %.3f s, want at least 2 over %.3f s", len(readings), spent, probeShare*wall)
	}
	for _, r := range readings {
		if !(r.wall > 0) || !(r.cpu > 0) || math.IsInf(r.wall+r.cpu, 0) {
			t.Errorf("reading %+v is not a pair of positive factors", r)
		}
	}
	if w, c := factors([]reading{{1, 4}, {3, 2}, {2, 6}}); w != 2 || c != 4 {
		t.Errorf("factors = %g, %g, want the medians 2 and 4 of each clock", w, c)
	}
	m := refSeconds("wall_ref_s", []float64{1, 2, 3}, 2)
	if m.Value != 1 || m.Stats.Median != 1 || m.Stats.Max != 1.5 || m.Samples[1] != 2 {
		t.Errorf("refSeconds = %+v stats %+v, want the measured median 2 over factor 2 and the samples as measured", m, *m.Stats)
	}
}

func TestSelfTimes(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "run", Start: msec(0), End: msec(100)},
		// Two children running in parallel cover 10..60, not 80 ms.
		{ID: 2, Parent: 1, Name: "point", Start: msec(10), End: msec(50)},
		{ID: 3, Parent: 1, Name: "point", Start: msec(20), End: msec(60)},
		// A child that outlives its parent is clipped to it.
		{ID: 4, Parent: 1, Name: "late", Start: msec(90), End: msec(130)},
		{ID: 5, Parent: 2, Name: "stage", Start: msec(10), End: msec(30)},
		// A span whose parent was not recorded is a root.
		{ID: 6, Parent: 99, Name: "detached", Start: msec(0), End: msec(5)},
	}
	want := map[string]time.Duration{
		"run": msec(40), "point": msec(20 + 40), "late": msec(40), "stage": msec(20), "detached": msec(5),
	}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
