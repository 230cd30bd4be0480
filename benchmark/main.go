// Command benchmark times the reference campaign end to end and layer
// by layer. It generates its inputs from -seed, runs the named workloads
// as closed loops from this one process, checks every output against a
// plain-flow.Run reference, and prints every metric by name with its unit; the
// last line of standard output is the result object BENCHMARK.json
// describes. It measures the program from outside only: timed calls into
// public functions, the public counter registry, and the public tracer.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/cellib"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// logw takes diagnostics; standard output is kept for metrics.
var logw io.Writer = os.Stderr

// metric is one named number. Stats and Samples are set when Value
// summarizes repetitions; Samples keeps them in run order and as
// measured, so a history row can be re-read under another estimator.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Stats   *summary  `json:"stats,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
	Note    string    `json:"note,omitempty"`
}

// row is one workload's result in one mode, with where it was measured.
type row struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"` // "end_to_end" (tracing off) or "per_layer"

	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Seed       int64  `json:"seed"`
	Time       string `json:"time"`

	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"` // point visits and layer checks
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	RefHash   string  `json:"ref_hash"` // of the reference; equal across workloads that share points
	Reps      int     `json:"reps"`
	// HostWall and HostCPU are the medians of the run's HostProbes probe
	// readings; wall_ref_s and setup_s are the measured times divided by
	// the first, cpu_ref_s by the second.
	HostWall   float64  `json:"host_wall,omitempty"`
	HostCPU    float64  `json:"host_cpu,omitempty"`
	HostProbes int      `json:"host_probes,omitempty"`
	Metrics    []metric `json:"metrics"`
}

func (r *row) tally(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// resultLine is the object the last line of standard output carries.
func (r row) resultLine() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

func (r row) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s  %s  seed=%d  reps=%d  ref=%s  attempted=%d failed=%d fail_ratio=%g\n",
		r.Workload, r.Mode, r.Seed, r.Reps, r.RefHash, r.Attempted, r.Failed, r.FailRatio)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if s := m.Stats; s != nil {
			fmt.Fprintf(w, "  n=%d min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g", s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
		if m.Note != "" {
			fmt.Fprintf(w, "  %s", m.Note)
		}
		fmt.Fprintln(w)
	}
}

// finish settles the verdict: a row is correct only when nothing failed
// and every value is a finite number.
func (r *row) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(logw, "%s: %s is not finite\n", r.Workload, m.Name)
			r.Correct = false
		}
	}
	if r.Attempted > 0 {
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
}

// selfSpans are the program's span names whose self time is reported
// per workload; any other name the program emits is summed into
// self.other_ms, so no time is silently dropped.
var selfSpans = []string{
	"flow.synth", "flow.place", "flow.cts", "flow.groute", "flow.droute", "flow.sta", "flow.run",
	"campaign.run", "campaign.point", "campaign.attempt", "campaign.journal.append", "campaign.journal.replay",
	"journal.append", "journal.sync", "sched.wait", "sched.run",
	"dist.coordinate", "dist.dispatch", "dist.rpc", "dist.worker.run", "dist.store.put",
}

// bench is one invocation.
type bench struct {
	env     *env
	seconds float64 // time box of each measured phase
	reps    int     // fixed repetition count; 0 = fill the time box
	trace   int     // 0 = end to end only, 1 = per layer only, else both
	host    *hostProbe
	stamp   row // the fields every row carries
	outDir  string
}

// more reports whether a phase that has run n repetitions since start
// should run another.
func (b *bench) more(n int, start time.Time) bool {
	if b.reps > 0 {
		return n < b.reps
	}
	return n == 0 || time.Since(start).Seconds() < b.seconds
}

// rep runs one repetition of f inside a harness span and books its
// checks on r. A repetition that errors fails every visit.
func (b *bench) rep(r *row, name string, visits int, f func(m *meter) (int, error)) (meter, error) {
	var m meter
	id := b.env.rec.begin(r.Workload, name, 0)
	failed, err := f(&m)
	b.env.rec.end(id)
	r.tally(visits, failed)
	if err != nil {
		return m, fmt.Errorf("%s %s: %w", r.Workload, name, err)
	}
	return m, nil
}

// runWorkload sets the workload up once, then measures it end to end
// with tracing off, per layer with tracing on, or both.
func (b *bench) runWorkload(w workload, layers *probe) ([]row, error) {
	e := b.env
	head := b.stamp
	head.Workload = w.name

	// Set-up: inputs, reference, pre-population, one warm-up.
	setupSpan := e.rec.begin(w.name, "bench.setup", 0)
	inst, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if inst.close != nil {
		defer inst.close()
	}
	head.RefHash = fmt.Sprintf("%016x", combine(inst.ref))
	head.tally(len(inst.ref), inst.invalid)
	if _, err := b.rep(&head, "bench.warmup", inst.visits, inst.rep); err != nil {
		return nil, err
	}
	setup := e.rec.end(setupSpan)

	var rows []row
	if b.trace != 1 {
		r := head
		r.Mode = "end_to_end"
		var wall, cpu, alloc []float64
		var host []reading
		for start := time.Now(); b.more(r.Reps, start); r.Reps++ {
			m, err := b.rep(&r, "bench.rep", inst.visits, inst.rep)
			if err != nil {
				return nil, err
			}
			wall, cpu, alloc = append(wall, m.wall), append(cpu, m.cpu), append(alloc, m.allocMB)
			host = b.host.after(host, m.wall)
		}
		r.HostWall, r.HostCPU = factors(host)
		r.HostProbes = len(host)
		as := summarize(alloc)
		r.Metrics = append(r.Metrics,
			refSeconds("wall_ref_s", wall, r.HostWall),
			refSeconds("cpu_ref_s", cpu, r.HostCPU),
			metric{Name: "alloc_mb", Unit: "MB", Value: as.Median, Stats: &as, Samples: alloc},
			refSeconds("setup_s", []float64{setup.Seconds()}, r.HostWall))
		r.finish()
		rows = append(rows, r)
	}
	if b.trace != 0 {
		r := head
		r.Mode = "per_layer"
		if err := b.traced(&r, w, inst); err != nil {
			return nil, err
		}
		r.Metrics = append(append([]metric(nil), layers.out...), r.Metrics...)
		r.tally(layers.attempted, layers.failed)
		r.finish()
		rows = append(rows, r)
	}
	return rows, nil
}

// refSeconds is the median of the measured seconds divided by a host
// factor: what the reference host would have read. Stats are those of
// the measured samples on the same scale, the note has the raw median.
func refSeconds(name string, measured []float64, factor float64) metric {
	sum := summarize(measured)
	raw := sum.Median
	for _, v := range []*float64{&sum.Min, &sum.Q1, &sum.Median, &sum.Q3, &sum.Max} {
		*v /= factor
	}
	return metric{Name: name, Unit: "s", Value: sum.Median, Stats: &sum, Samples: measured,
		Note: fmt.Sprintf("measured median %.6g s / host factor %.4f", raw, factor)}
}

// traced alternates untraced and traced repetitions of the workload
// (and, for dist_2node, in-process ones) until the time box is full,
// and derives the workload's per-layer metrics: counter deltas over a
// traced repetition, span self times, and the tracing overhead.
func (b *bench) traced(r *row, w workload, inst *instance) error {
	var plain, traced, local []float64
	self := map[string][]float64{}
	var counts map[string]int64 // counter deltas over the last traced repetition
	var nspans int
	var dropped, peak int64
	var tracer *trace.Tracer
	for start := time.Now(); b.more(r.Reps, start); r.Reps++ {
		m, err := b.rep(r, "bench.rep", inst.visits, inst.rep)
		if err != nil {
			return err
		}
		plain = append(plain, m.wall)

		before := metrics.Default.Snapshot()
		tracer = trace.New(0) // unbounded: a traced repetition must keep every span
		trace.Enable(tracer)
		m, err = b.rep(r, "bench.rep_traced", inst.visits, inst.rep)
		trace.Disable()
		if err != nil {
			return err
		}
		traced = append(traced, m.wall)
		counts, peak = metrics.Default.Snapshot(), metrics.Get("sched.active.peak")
		for k, v := range before {
			counts[k] -= v
		}
		data, drop := tracer.Snapshot()
		nspans, dropped = len(data), drop
		for _, d := range data {
			if d.Name == "dist.rpc" {
				counts["dist.rpc"]++ // the program keeps no counter of logical RPC attempts
			}
		}
		for name, v := range selfMs(w.name, data) {
			self[name] = append(self[name], v)
		}

		if inst.inProcess != nil {
			m, err := b.rep(r, "bench.rep_in_process", inst.visits, inst.inProcess)
			if err != nil {
				return err
			}
			local = append(local, m.wall)
		}
	}
	if tracer != nil {
		if err := writeProgramTrace(filepath.Join(b.outDir, "trace."+w.name+".json"), tracer); err != nil {
			return err
		}
	}

	visits := float64(inst.visits)
	add := func(name, unit string, v float64) {
		r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v})
	}
	per := func(keys ...string) float64 {
		var n int64
		for _, k := range keys {
			n += counts[k]
		}
		return float64(n) / visits
	}
	sp := summarize(plain)
	add("campaign.visit_us", "us", 1e6*sp.Median/visits)
	lookups := float64(counts["campaign.cache.hit"] + counts["campaign.cache.miss"])
	add("campaign.hit_ratio", "ratio", float64(counts["campaign.cache.hit"])/math.Max(lookups, 1))
	add("campaign.coalesced", "count", float64(counts["campaign.cache.coalesced"]))
	add("sched.peak_inflight", "count", float64(peak))
	add("journal.bytes_per_point", "bytes", per("journal.append.bytes"))
	add("journal.syncs_per_point", "count", per("journal.sync.ok"))
	add("warehouse.records_per_point", "count", per("warehouse.appended"))
	add("warehouse.deduped", "count", float64(counts["warehouse.deduped"]))
	add("dist.rpcs_per_point", "count", per("dist.rpc"))
	add("dist.claims_per_point", "count", per("dist.claim.granted", "dist.claim.held"))
	add("dist.rpc_retried", "count", float64(counts["dist.rpc.retried"]))
	add("dist.coord_stolen", "count", float64(counts["dist.coord.stolen"]))
	// The two overheads are signed percentages only when they clear the
	// run-to-run spread; otherwise the value is 0 and the note says why.
	overhead := metric{Name: "dist.overhead_pct", Unit: "%", Note: "not a dist workload"}
	if len(local) > 0 {
		eff := compare(summarize(local), sp)
		overhead.Value, overhead.Note = eff.Pct, "vs in-process 2-worker Sweep: "+eff.String()
	}
	eff := compare(sp, summarize(traced))
	r.Metrics = append(r.Metrics, overhead, metric{Name: "trace.overhead_pct", Unit: "%", Value: eff.Pct, Note: eff.String()})
	add("trace.spans_per_point", "count", float64(nspans)/visits)
	add("trace.dropped", "count", float64(dropped))
	for _, name := range append(slices.Clone(selfSpans), "other") {
		sum := summarize(self[name])
		r.Metrics = append(r.Metrics, metric{Name: "self." + name + "_ms", Unit: "ms", Value: sum.Median, Stats: &sum})
	}
	return nil
}

// selfMs folds one traced repetition to self time in ms per name in
// selfSpans, every other name summed under "other".
func selfMs(run string, data []trace.SpanData) map[string]float64 {
	out := make(map[string]float64, len(selfSpans)+1)
	for _, name := range selfSpans {
		out[name] = 0 // a name the workload never emits still reports 0
	}
	for name, d := range selfTimes(programSpans(run, data)) {
		if !slices.Contains(selfSpans, name) {
			name = "other"
		}
		out[name] += ms(d)
	}
	return out
}

// writeProgramTrace exports the program's own spans of the last traced
// repetition, for chrome://tracing next to the harness's trace.json.
func writeProgramTrace(path string, t *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit asks git for the checkout's revision; a checkout that is not a
// repository is "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchDir finds the benchmark's directory from either place the
// program is started, the repository root or the directory itself, by
// its go.mod. Started anywhere else it fails, so that out/ and
// history.jsonl never appear in an unrelated directory.
func benchDir() (string, error) {
	for _, dir := range []string{"benchmark", "."} {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module repro/benchmark\n") {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or from benchmark/: no go.mod of module repro/benchmark here")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all six)")
	seed := fs.Int64("seed", 1, "input seed: run seeds of every point are seed+1 .. seed+k")
	seconds := fs.Float64("seconds", 12, "time box of each measured phase; repetitions run until it is full")
	reps := fs.Int("reps", 0, "fixed repetition count per phase (0: fill -seconds)")
	traceMode := fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics; -1: both")
	out := fs.String("out", "", "write every row as JSON to this file (default <benchmark>/out/result.json)")
	history := fs.Bool("history", false, "also append every row to <benchmark>/history.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
			if i < 0 {
				fmt.Fprintf(logw, "unknown workload %q\n", name)
				return 2
			}
			selected = append(selected, workloads[i])
		}
	}

	dir, err := benchDir()
	if err != nil {
		fmt.Fprintln(logw, err)
		return 1
	}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(logw, err)
		return 1
	}
	// Every journal, warehouse and store dir is made under tmp, inside
	// the checkout, and tmp is removed however the run ends.
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(logw, err)
		return 1
	}
	defer os.RemoveAll(tmp)
	sig := make(chan os.Signal, 1)
	// SIGPIPE too: a reader that closes standard output early (| head)
	// would otherwise kill the process before its temp dirs are removed.
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sig
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	host, err := newHostProbe()
	if err != nil {
		fmt.Fprintln(logw, err)
		return 1
	}
	defer host.close()
	b := &bench{
		env:     &env{lib: cellib.Default14nm(), seed: *seed, tmp: tmp, rec: newRecorder()},
		seconds: *seconds, reps: *reps, trace: *traceMode, outDir: outDir, host: host,
		stamp: row{
			Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Seed: *seed, Time: time.Now().UTC().Format(time.RFC3339),
		},
	}
	rows, err := b.runAll(selected)
	if werr := b.env.rec.writeChromeTrace(filepath.Join(outDir, "trace.json")); err == nil {
		err = werr
	}
	if err != nil {
		fmt.Fprintln(logw, "benchmark:", err)
		return 1
	}

	if *out == "" {
		*out = filepath.Join(outDir, "result.json")
	}
	if err := writeRows(*out, rows, false); err != nil {
		fmt.Fprintln(logw, err)
		return 1
	}
	if *history {
		if err := writeRows(filepath.Join(dir, "history.jsonl"), rows, true); err != nil {
			fmt.Fprintln(logw, err)
			return 1
		}
	}
	for _, r := range rows {
		r.print(stdout)
	}
	fmt.Fprintln(stdout)
	for _, r := range rows {
		line, err := r.resultLine()
		if err != nil { // a value that is not a finite number
			fmt.Fprintln(logw, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	return exitCode(rows)
}

// exitCode is non-zero as soon as one row has a failed check.
func exitCode(rows []row) int {
	for _, r := range rows {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runAll measures the layers once (they do not depend on the workload),
// then every selected workload.
func (b *bench) runAll(selected []workload) ([]row, error) {
	var layers *probe
	if b.trace != 0 {
		var err error
		if layers, err = b.env.layers(); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}
	var rows []row
	for _, w := range selected {
		rs, err := b.runWorkload(w, layers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rs...)
	}
	return rows, nil
}

// writeRows writes rows as one JSON array, or appends them one object
// per line so a history survives every later run.
func writeRows(path string, rows []row, appendLines bool) error {
	if !appendLines {
		data, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
