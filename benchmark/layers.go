package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cts"
	"repro/internal/dist"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/num"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/warehouse"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// stageSeed is the seed flow.Run hands stage number step (synth 1 ..
// recover 6): flow's unexported subSeed(seed, step), which is num.Mix one
// stream lower. flow exports none of the options it derives for its
// stages, so the staged pass repeats them (this seed, 60 moves a cell,
// the signoff timer config); the probe proves after every pass that the
// kernels got flow.Run's inputs by comparing QoR, and fails the run when
// flow changes them.
func stageSeed(seed int64, step uint64) int64 { return num.Mix(seed, step-1) }

// staged is one replay of the flow's stages through the public kernel
// functions, each call timed from outside.
type staged struct {
	ms map[string]float64 // duration of each timed call, by metric name

	syn      synth.Result
	serial   place.Result // Workers: 0, the serial annealer flow.Run uses
	parallel place.Result // Workers: 2, the speculative annealer
	detail   *route.DetailResult
	sign     *sta.Report
	skew     []float64
	net      *netlist.Netlist // the implemented netlist
	area     float64          // as flow.Run reports it: cells plus clock buffers
}

// onFlowPath are the staged timings flow.Run also spends; the others
// time engines it does not take on this path.
var onFlowPath = []string{"synth.run_ms", "place.serial_ms", "cts.synthesize_ms", "route.global_ms", "route.detail_ms", "sta.analyze_ms"}

// stagedPass replays synth → place → cts → groute → droute → sta on d
// with the options flow.Run would derive from opts, and additionally
// times the engines flow.Run does not take on this path (speculative
// annealer at 1 and 2 workers, tiled global router) on clones of the
// same post-synthesis netlist.
func (e *env) stagedPass(d *netlist.Netlist, opts flow.Options) staged {
	root := e.rec.begin(d.Name, "staged", 0)
	defer e.rec.end(root)
	s := staged{ms: map[string]float64{}}
	// timed records f under the metric's name less its unit suffix.
	timed := func(metric string, f func()) {
		s.ms[metric] = ms(e.rec.time(d.Name, strings.TrimSuffix(metric, "_ms"), root, f))
	}
	timed("synth.run_ms", func() {
		s.syn = synth.Run(d, synth.Options{
			TargetFreqGHz: opts.TargetFreqGHz, Effort: opts.SynthEffort,
			Seed: stageSeed(opts.Seed, 1), MaxFanout: opts.MaxFanout,
		})
	})
	n := s.syn.Netlist
	popts := place.Options{Seed: stageSeed(opts.Seed, 2), Moves: 60 * n.NumCells()}
	for _, workers := range []int{1, 2} {
		c, po := n.Clone(), popts
		po.Workers = workers
		// The result is the same at every worker count; only time differs.
		timed(fmt.Sprintf("place.spec%d_ms", workers), func() { s.parallel = place.Place(c, po) })
	}
	timed("place.serial_ms", func() { s.serial = place.Place(n, popts) })
	var ct cts.Result
	timed("cts.synthesize_ms", func() { ct = cts.Synthesize(n, cts.Options{Seed: stageSeed(opts.Seed, 3)}) })
	gopts := route.GlobalOptions{Seed: stageSeed(opts.Seed, 4)}
	tiled := gopts
	tiled.Tiles = 4
	timed("route.global_tiled_ms", func() { route.GlobalRoute(n, tiled) })
	var gr *route.GlobalResult
	timed("route.global_ms", func() { gr = route.GlobalRoute(n, gopts) })
	timed("route.detail_ms", func() {
		s.detail = route.DetailRoute(gr, route.DetailOptions{Seed: stageSeed(opts.Seed, 5)})
	})
	s.skew = ct.SkewPs
	timed("sta.analyze_ms", func() {
		s.sign = sta.Analyze(n, sta.Config{Engine: sta.Signoff, SI: true, ClockSkew: s.skew})
	})
	s.net = n
	s.area = n.Area() + ct.AreaUm2
	return s
}

// recordSink collects the records an emitter would ship.
type recordSink []warehouse.Record

func (s *recordSink) Append(r warehouse.Record) error { *s = append(*s, r); return nil }

// probe measures every layer from outside: a staged pass over the
// kernels on soc-proxy and pulpino-proxy, then micro-passes over the
// infra layers at the payload size of one journaled pulpino-proxy point.
// Its numbers do not depend on which workload is running.
type probe struct {
	e    *env
	opts flow.Options // the one point every pass runs: 0.5 GHz, seed+1

	out               []metric
	attempted, failed int // checks made, checks that did not hold

	// One journaled pulpino-proxy point, shared by the infra passes.
	steps   []flow.StepRecord
	entry   campaign.Entry
	payload []byte
}

func (p *probe) add(name, unit string, v float64) {
	p.out = append(p.out, metric{Name: name, Unit: unit, Value: v})
}

// time runs f in a recorded span on the "infra" lane.
func (p *probe) time(name string, f func()) time.Duration {
	return p.e.rec.time("infra", name, 0, f)
}

func (p *probe) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		fmt.Fprintf(logw, "check failed: "+format+"\n", args...)
	}
}

func (e *env) layers() (*probe, error) {
	p := &probe{e: e, opts: base}
	p.opts.TargetFreqGHz, p.opts.Seed = 0.5, e.seed+1
	for _, pass := range []func() error{p.kernels, p.codec, p.journal, p.warehouse, p.store} {
		if err := pass(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// kernels covers netlist, synth, place, cts, route, sta, sizing and flow.
func (p *probe) kernels() error {
	e, rec, opts := p.e, p.e.rec, p.opts
	var soc *netlist.Netlist
	p.add("netlist.generate_ms", "ms", ms(rec.time("soc-proxy", "netlist.generate", 0, func() { soc = e.design("soc-proxy") })))
	const clones = 20
	p.add("netlist.clone_us", "us", us(rec.time("soc-proxy", "netlist.clone", 0, func() {
		for i := 0; i < clones; i++ {
			soc.Clone()
		}
	}))/clones)

	// The staged kernels against the whole flow on the same inputs, in
	// three interleaved rounds; medians keep one slow round from skewing
	// glue_pct.
	const rounds = 3
	var st staged
	var kernelSum, flowRun, flowAllocs []float64
	series := map[string][]float64{}
	for i := 0; i < rounds; i++ {
		st = e.stagedPass(soc, opts)
		sum := 0.0
		for name, v := range st.ms {
			series[name] = append(series[name], v)
			if slices.Contains(onFlowPath, name) {
				sum += v
			}
		}
		kernelSum = append(kernelSum, sum)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var res *flow.Result
		flowRun = append(flowRun, ms(rec.time("soc-proxy", "flow.run", 0, func() { res = flow.Run(soc, opts) })))
		runtime.ReadMemStats(&m1)
		flowAllocs = append(flowAllocs, float64(m1.Mallocs-m0.Mallocs))
		p.check(res.AreaUm2 == st.area && res.WNSPs == st.sign.WNSPs,
			"staged pass on soc-proxy diverged from flow.Run: area %g vs %g, wns %g vs %g", st.area, res.AreaUm2, st.sign.WNSPs, res.WNSPs)
	}
	med := func(name string) float64 { return median(series[name]) }
	p.add("synth.run_ms", "ms", med("synth.run_ms"))
	p.add("synth.passes", "count", float64(st.syn.Passes))
	p.add("place.serial_ms", "ms", med("place.serial_ms"))
	p.add("place.serial_moves_per_s", "1/s", float64(st.serial.MovesTried)/(med("place.serial_ms")/1e3))
	p.add("place.serial_accept_ratio", "ratio", float64(st.serial.MovesAccepted)/float64(st.serial.MovesTried))
	p.add("place.spec1_ms", "ms", med("place.spec1_ms"))
	p.add("place.spec2_ms", "ms", med("place.spec2_ms"))
	p.add("place.spec_conflict_ratio", "ratio", float64(st.parallel.MovesConflicted)/float64(st.parallel.MovesAccepted+st.parallel.MovesConflicted))
	p.add("place.spec_batch_final", "count", float64(st.parallel.BatchFinal))
	p.add("cts.synthesize_ms", "ms", med("cts.synthesize_ms"))
	p.add("route.global_ms", "ms", med("route.global_ms"))
	p.add("route.global_tiled_ms", "ms", med("route.global_tiled_ms"))
	p.add("route.detail_ms", "ms", med("route.detail_ms"))
	p.add("route.detail_iters", "count", float64(st.detail.IterationsRun))
	p.add("sta.analyze_ms", "ms", med("sta.analyze_ms"))

	// Incremental timer: upsize a stride of cells one at a time on the
	// implemented soc netlist.
	incNet := st.net.Clone()
	inc := sta.NewIncremental(incNet, sta.Config{Engine: sta.Signoff, SI: true, ClockSkew: st.skew})
	built := inc.Propagated()
	incr := rec.time("soc-proxy", "sta.incr_update", 0, func() {
		for id := 0; id < incNet.NumCells() && inc.Updates() < 256; id += 37 {
			if up, ok := incNet.Lib.Upsize(incNet.Insts[id].Cell); ok {
				incNet.Insts[id].Cell = up
				inc.Resize(id)
			}
		}
	})
	updates := float64(max(inc.Updates(), 1))
	p.add("sta.incr_update_us", "us", us(incr)/updates)
	p.add("sta.incr_propagated_per_update", "count", float64(inc.Propagated()-built)/updates)

	// Area recovery needs slack to spend: relax the pulpino clock 15 %
	// past its worst arrival so Recover evaluates real candidates.
	pulpino := e.design("pulpino-proxy")
	pst := e.stagedPass(pulpino, opts)
	recNet := pst.net.Clone()
	recNet.ClockPeriodPs = (recNet.ClockPeriodPs - pst.sign.WNSPs) * 1.15
	signoff := sta.Config{Engine: sta.Signoff, SI: true, ClockSkew: pst.skew}
	var recovered sizing.Result
	p.add("sizing.recover_ms", "ms", ms(rec.time("pulpino-proxy", "sizing.recover", 0, func() {
		recovered = sizing.Recover(recNet, sizing.Config{Seed: stageSeed(opts.Seed, 6), MaxPasses: 2, Engine: &signoff})
	})))
	p.add("sizing.timer_work_equiv", "count", recovered.TimerWorkEquiv)
	p.check(recNet.Validate() == nil, "recovered netlist fails Validate")

	p.add("flow.run_soc_ms", "ms", median(flowRun))
	var pres *flow.Result
	p.add("flow.run_pulpino_ms", "ms", ms(rec.time("pulpino-proxy", "flow.run", 0, func() {
		pres = flow.RunObserved(pulpino, opts, flow.ObserverFunc(func(r flow.StepRecord) { p.steps = append(p.steps, r) }))
	})))
	p.check(pres.AreaUm2 == pst.area && pres.WNSPs == pst.sign.WNSPs, "staged pass on pulpino-proxy diverged from flow.Run")
	p.add("flow.glue_pct", "%", 100*(median(flowRun)-median(kernelSum))/median(flowRun))
	p.add("flow.allocs_per_run", "count", median(flowAllocs))
	const keys = 10000
	p.add("flow.key_us", "us", us(p.time("flow.key", func() {
		for i := 0; i < keys; i++ {
			opts.Key()
		}
	}))/keys)

	point := campaign.Points(pulpino, campaign.KeyFor(pulpino), opts, []int64{opts.Seed})[0]
	p.entry = campaign.Entry{Key: point.CacheKey(), Res: pres, Steps: p.steps}
	return nil
}

// codec covers the campaign entry's gob encoding.
func (p *probe) codec() (err error) {
	if p.payload, err = campaign.EncodeEntry(p.entry); err != nil {
		return err
	}
	const rounds = 20
	p.add("campaign.entry_bytes", "bytes", float64(len(p.payload)))
	p.add("campaign.entry_encode_us", "us", us(p.time("campaign.entry_encode", func() {
		for i := 0; i < rounds; i++ {
			campaign.EncodeEntry(p.entry) //nolint:errcheck // encoded once above
		}
	}))/rounds)
	var decoded campaign.Entry
	p.add("campaign.entry_decode_us", "us", us(p.time("campaign.entry_decode", func() {
		for i := 0; i < rounds && err == nil; i++ {
			decoded, err = campaign.DecodeEntry(p.payload)
		}
	}))/rounds)
	if err != nil {
		return err
	}
	p.check(decoded.Key == p.entry.Key && pointHash(resultPoint(decoded.Res)) == pointHash(resultPoint(p.entry.Res)), "entry did not survive its codec")
	return nil
}

// points is how many points' worth of records the journal and
// warehouse passes write: the durable workloads' campaign size.
const points = 48

// journal covers append under both fsync policies and reopen.
func (p *probe) journal() error {
	for _, v := range []struct {
		name string
		sync journal.SyncPolicy
	}{{"journal.append_fsync_us", journal.SyncAlways}, {"journal.append_nosync_us", journal.SyncNever}} {
		dir, err := p.e.mkdir("journal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		log, err := journal.Open(dir, journal.Options{Sync: v.sync})
		if err != nil {
			return err
		}
		p.add(v.name, "us", us(p.time(v.name, func() {
			for i := 0; i < points && err == nil; i++ {
				err = log.Append(p.payload)
			}
		}))/points)
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if v.sync != journal.SyncAlways {
			continue
		}
		p.add("journal.open_replay_ms", "ms", ms(p.time("journal.open_replay", func() { log, err = journal.Open(dir, journal.Options{}) })))
		if err != nil {
			return err
		}
		p.check(len(log.Records()) == points, "journal replayed %d of %d records", len(log.Records()), points)
		log.Close()
	}
	return nil
}

// warehouse covers append, reopen and the query side, on the records an
// emitter ships for one point relabelled to 48 points.
func (p *probe) warehouse() error {
	var sink recordSink
	em := warehouse.NewEmitter("bench", "local", []string{p.opts.Key()}, &sink)
	for _, s := range p.steps {
		em.OnStep(s)
	}
	em.Flush()
	dir, err := p.e.mkdir("warehouse-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wh, err := warehouse.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	records := points * len(sink)
	p.add("warehouse.append_us", "us", us(p.time("warehouse.append", func() {
		for pt := 0; pt < points; pt++ {
			for _, r := range sink {
				r.Point = pt
				if err == nil {
					err = wh.Append(r)
				}
			}
		}
	}))/float64(records))
	if cerr := wh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.add("warehouse.open_replay_ms", "ms", ms(p.time("warehouse.open_replay", func() { wh, err = warehouse.Open(dir, journal.Options{}) })))
	if err != nil {
		return err
	}
	defer wh.Close()
	p.check(wh.Stats().Replayed == records, "warehouse replayed %d of %d records", wh.Stats().Replayed, records)
	const selects = 100
	p.add("warehouse.select_us", "us", us(p.time("warehouse.select", func() {
		for i := 0; i < selects; i++ {
			wh.Select(warehouse.Query{Campaign: "bench"})
		}
	}))/selects)
	p.add("warehouse.dump_ms", "ms", ms(p.time("warehouse.dump", func() { wh.DumpCanonical(io.Discard, "bench") })))
	return nil
}

// store covers the dist result store: StoreClient to StoreServer over
// loopback, WAL-backed.
func (p *probe) store() error {
	dir, err := p.e.mkdir("store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := dist.OpenStore(dir, journal.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	srv := dist.NewStoreServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	client := dist.NewStoreClient("http://" + addr)
	defer client.Close()

	const puts = 24
	key := func(i int) string { return fmt.Sprintf("%s#%d", p.entry.Key, i) }
	ctx := context.Background()
	putErrs := metrics.Get("dist.client.put_err")
	p.add("dist.store_put_us", "us", us(p.time("dist.store_put", func() {
		for i := 0; i < puts; i++ {
			ent := p.entry
			ent.Key = key(i)
			client.StoreCtx(ctx, ent)
		}
	}))/puts)
	p.check(metrics.Get("dist.client.put_err") == putErrs && store.Len() == puts, "store holds %d of %d entries", store.Len(), puts)
	got := 0
	p.add("dist.store_get_us", "us", us(p.time("dist.store_get", func() {
		for i := 0; i < puts; i++ {
			if _, ok := client.LoadCtx(ctx, key(i)); ok {
				got++
			}
		}
	}))/puts)
	p.check(got == puts, "store served %d of %d entries", got, puts)
	return nil
}
