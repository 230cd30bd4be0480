#!/usr/bin/env bash
# Tier-1 gate for the repository.
#
#   scripts/check.sh          gofmt + vet + build + race-enabled tests
#                             (with a doubled concurrency tier on the
#                             scheduler, campaign engine, the keyed
#                             journal, the parallel place & route
#                             kernels, and the speculative flow path),
#                             then vet + tests of the nested
#                             benchmark module, then 10 s of fuzzing per
#                             byte-facing decoder (campaign entry,
#                             journal segment, warehouse ingest, gob
#                             cell library, span collector, campaign
#                             front door, warehouse WAL replay against
#                             json.Unmarshal), of the placer's net
#                             extremes (FuzzNetExtremes) and of the one-
#                             walk net electricals (FuzzElectricals);
#                             the last line printed is this default
#                             tier's wall time (and the whole run's,
#                             when a mode below follows it)
#   scripts/check.sh bench    also run the benchmark pairs and write the
#                             speedups to BENCH_campaign.json /
#                             BENCH_sta.json / BENCH_place.json /
#                             BENCH_route.json / BENCH_spec.json, the
#                             live doomed-run abort gate to
#                             BENCH_doomed.json, then print a
#                             consolidated table of every BENCH_*.json
#                             (failing loudly if any expected file is
#                             missing)
#   scripts/check.sh spec     speculation tier: doubled -race over the
#                             flow/spec packages, speculative sweeps
#                             diffed byte-for-byte against the
#                             non-speculative reference at worker counts
#                             1/2/4/8, a kill -9 resume mid-speculation,
#                             and the deterministic doomed -speculate
#                             overlap report (commits > 0, QoR drift 0)
#   scripts/check.sh crash    crash-safety tier: -race over the journal/
#                             watchdog/campaign/flow paths, a fuzz smoke
#                             of the journal decoder, then a real kill -9
#                             soak — journaled sweeps killed at several
#                             points and resumed at worker counts 1 and
#                             8 must reproduce the uninterrupted output
#                             byte-for-byte
#   scripts/check.sh trace    observability demo gate: run a real traced
#                             sweep end to end and validate the Chrome
#                             trace_event JSON with cmd/tracecheck — it
#                             must be non-empty, well-formed, and cover
#                             campaign points, flow stages, and route
#                             iterations (this is `make trace-demo`)
#   scripts/check.sh dist     distributed campaign tier: doubled -race
#                             over the dist/metrics/sched packages,
#                             sharded loopback sweeps at 1/2/4 worker
#                             nodes diffed byte-for-byte against the
#                             single-process reference, a kill -9 of a
#                             campd worker process mid-campaign (the
#                             coordinator must requeue and still emit
#                             the reference bytes), killed deployments
#                             rerun against the store WAL, and the
#                             1-node vs 4-node pulpino throughput pair
#                             written to BENCH_dist.json (gated at
#                             >= 1.8x at an identical qor_hash)
#   scripts/check.sh obs      distributed observability tier: doubled
#                             -race over the trace/dist/warehouse
#                             packages, then a 3-node DistSweep that
#                             must emit ONE stitched Chrome trace
#                             (tracecheck-valid, spans from every node
#                             parented under the coordinator's campaign
#                             span) and a METRICS warehouse whose
#                             canonical dump is byte-identical to the
#                             single-node run's — also under the flaky
#                             chaos profile (retries visible as
#                             dist.rpc spans) and after a kill -9 of
#                             the run writing the warehouse WAL
#   scripts/check.sh chaos    network chaos tier: doubled -race over the
#                             chaos/dist packages, a soak matrix of
#                             every deterministic fault profile (flaky,
#                             slow, partition, kill) x 3 seeds at 3
#                             worker nodes diffed byte-for-byte against
#                             the single-process reference, a WAL
#                             written under chaos replayed by a clean
#                             rerun, and campd store/worker SIGTERM
#                             drain tests (exit 0, clean journal)
#
# BENCH_*.json files are written atomically (temp + rename), so a gate
# failure or a kill mid-write never leaves a torn or half-updated file.
#
# The bench mode runs BenchmarkCampaignSerial (the plain flow.Run loop)
# against BenchmarkCampaignParallel (campaign engine + memo cache), and
# BenchmarkRecoverFull (full sta.Analyze per candidate downsize) against
# BenchmarkRecoverIncremental (sta.Incremental dirty-frontier engine) on
# identical workloads, emitting machine-readable lines:
#
#   campaign_speedup_x=<serial ns/op divided by parallel ns/op>
#   trace_overhead_pct=<traced vs untraced parallel campaign, percent>
#   sta_recover_speedup_x=<full ns/op divided by incremental ns/op>
#   place_speedup_x=<serial annealer vs territory engine at GOMAXPROCS workers>
#   route_speedup_x=<sharded router, 1 worker vs all-regions-in-flight>
#
# The place pair is the serial annealer (BenchmarkPlaceAnneal) against
# the territory engine with one crew member per processor
# (BenchmarkPlaceParallel): the parallel HPWL must be at most 1.10x the
# serial annealer's (the one engine-vs-engine bound, also held by
# scripts/goldenfence and TestParallelPlaceQuality: "no worse than serial"
# was true only while a stripe was the tree's sole range limit, and both
# engines now draw from a temperature-sized window), the same
# anneal on a crew of one must land on the same bits (hpwl_w1,
# accepted_w1), and on a host with >= 2 CPUs it must be >= 1.05x faster
# (min-of-5; the bar was 1.25x until the O(1) exact move evaluator took a
# quarter off the serial annealer's time and a tenth off the territory
# engine's, whose per-epoch state copies and rescans it does not touch:
# 44 / 33 ms became 34 / 30 ms, ~1.13x).
# The route pair runs the SAME sharded router at worker count 1 and at
# full fan-out; it is worker-invariant by construction,
# so the gate demands byte-identical wirelength/overflow/drv_sum
# alongside a >= 2x min-of-3 speedup.
#
# The sta pair is gated: the incremental engine must be >= 10x faster at
# pulpino-proxy scale AND land on the identical final area/WNS. The
# tracing pair is gated too: BenchmarkCampaignTraced (tracer armed, every
# point/stage/iteration emitting spans) may be at most 5% slower than the
# untraced BenchmarkCampaignParallel — best of five interleaved A/B
# pairs, because full observability must stay in the noise — and
# BenchmarkCampaignWarehoused (a warehouse emitter recording every flow
# stage as a METRICS record) carries the same 5% bar. (Tracing *off* costs
# one nil-check per span site; BenchmarkSpanDisabled in internal/trace
# pins that at ~3ns and 0 allocs.)
set -eu
cd "$(dirname "$0")/.."

# wait_addr NAME FILE: campd binds port 0 and prints "campd NAME listening
# on ADDR"; poll ADDR out of the process's stdout file (the dist and chaos
# tiers run real campd deployments).
wait_addr() {
    i=0
    while [ "$i" -lt 100 ]; do
        a=$(sed -n "s/^campd $1 listening on \([^ ]*\).*/\1/p" "$2")
        if [ -n "$a" ]; then printf '%s' "$a"; return 0; fi
        i=$((i+1)); sleep 0.05
    done
    echo "check.sh: $1 never reported its address" >&2
    return 1
}

# Formatting is part of the gate: name the unformatted files, then fail.
test -z "$(gofmt -l . | tee /dev/stderr)"
go vet ./...
go build ./...
# Concurrency tier: the license pool, gang scheduler and campaign
# engine carry the cancellation/retry machinery every experiment fans
# out on, the tracer/metrics server are written to by every one of
# those goroutines at once, the place/route kernels run territory
# lanes and sharded regions on the gang, and the flow/spec pair runs
# whole speculative stage chains concurrently with the real stages; run
# their race tests twice (fresh caches each time) before the full
# suite; the dist service rides along because its store and
# coordinator queues are hammered by every worker node at once, and the
# journal because every durable store is a journal.Keyed whose puts,
# gets and Close race by design.
go test -race -count=2 ./internal/sched/... ./internal/campaign/... \
    ./internal/journal/... ./internal/trace/... ./internal/metrics/... \
    ./internal/place/... ./internal/route/... \
    ./internal/flow/... ./internal/spec/... ./internal/dist/...
go test -race ./...
# The repo benchmark is a nested module (benchmark/go.mod), which the
# ./... patterns above cannot see.
(cd benchmark && go vet ./... && go test ./...)
# Fuzz tier: every decoder that reads bytes off a disk or a socket, the
# placer's incrementally maintained net extremes, and the timers' one
# walk of a net against NetLoad and HPWL walked apart, get ten seconds of
# coverage-guided input per check, on top of the seed corpus (which the
# suites above already ran as plain tests). go test fuzzes one target of
# one package per invocation; minimizing each new coverage-raising input
# is capped, or its 60 s default eats the budget.
for target in internal/campaign:FuzzDecodeEntry internal/journal:FuzzJournalDecode \
    internal/warehouse:FuzzIngest internal/cellib:FuzzLibraryGobDecode \
    internal/trace:FuzzCollectorIngest internal/metrics:FuzzFrontDoorSubmit \
    internal/place:FuzzNetExtremes internal/netlist:FuzzElectricals \
    internal/warehouse:FuzzDecodeRecord; do
    go test -run='^$' -fuzz="^${target#*:}\$" -fuzztime=10s -fuzzminimizetime=100x "./${target%%:*}"
done
# Every mode below runs after the default tier; its time is kept for the
# closing line.
tier_s=$SECONDS

if [ "${1:-}" = "bench" ]; then
    # Every pair writes BENCH_x.json.tmp and renames it once its gate
    # holds; a failed gate exits before the rename, so sweep up here.
    trap 'rm -f BENCH_*.json.tmp' EXIT
    out=$(go test -run=NONE -bench='BenchmarkCampaign(Serial|Parallel)$' -benchtime=3x .)
    echo "$out"
    # Tracing overhead: five interleaved A/B invocations, each running
    # the untraced and traced benchmark seconds apart, gated on the
    # MINIMUM per-pair ratio. Scheduler noise on this workload is ±10%
    # while real tracing overhead is ~1%, and noise can only inflate a
    # ratio — so the best pair is the tightest upper bound on the true
    # overhead, and a genuine regression (say a 10% cost per span batch)
    # still shows up in every pair. (-count=5 would run five untraced
    # then five traced ~30s later, and machine drift across that window
    # lands entirely on the "overhead".)
    tout=""
    for _ in 1 2 3 4 5; do
        tout="$tout
$(go test -run=NONE -bench='BenchmarkCampaign(Parallel|Traced|Warehoused)$' -benchtime=1s .)"
    done
    echo "$tout"
    { echo "$out"; echo "===TRACED==="; echo "$tout"; } | awk '
        /^===TRACED===$/ { traced_section = 1; next }
        !traced_section && /BenchmarkCampaignSerial/   { serial = $3 }
        !traced_section && /BenchmarkCampaignParallel/ { parallel = $3
            for (i = 1; i <= NF; i++) {
                if ($i == "cache_hit_rate") hit = $(i-1)
                if ($i == "qor_area_sum")   qor = $(i-1)
            }
        }
        traced_section && /BenchmarkCampaignParallel/ { pcur = $3 + 0 }
        traced_section && /BenchmarkCampaignTraced/ {
            if (pcur > 0) {
                ratio = ($3 + 0) / pcur
                if (best == "" || ratio < best) { best = ratio; tmin = $3 + 0 }
            }
            for (i = 1; i <= NF; i++) if ($i == "spans") spans = $(i-1)
        }
        traced_section && /BenchmarkCampaignWarehoused/ {
            if (pcur > 0) {
                ratio = ($3 + 0) / pcur
                if (wbest == "" || ratio < wbest) { wbest = ratio; wmin = $3 + 0 }
            }
            pcur = 0
        }
        END {
            if (serial == "" || parallel == "" || parallel == 0 || best == "" || wbest == "") {
                print "check.sh: could not parse benchmark output" > "/dev/stderr"
                exit 1
            }
            speedup = serial / parallel
            overhead = (best - 1) * 100
            woverhead = (wbest - 1) * 100
            printf "campaign_speedup_x=%.2f\n", speedup
            printf "trace_overhead_pct=%.2f\n", overhead
            printf "warehouse_overhead_pct=%.2f\n", woverhead
            printf "{\"benchmark\":\"campaign\",\"serial_ns_per_op\":%s,\"parallel_ns_per_op\":%s,\"speedup_x\":%.2f,\"cache_hit_rate\":%s,\"qor_area_sum\":%s,\"traced_ns_per_op\":%.0f,\"trace_overhead_pct\":%.2f,\"spans_per_op\":%s,\"warehoused_ns_per_op\":%.0f,\"warehouse_overhead_pct\":%.2f}\n", \
                serial, parallel, speedup, hit, qor, tmin, overhead, spans, wmin, woverhead > "BENCH_campaign.json.tmp"
            if (overhead > 5) {
                printf "check.sh: tracing overhead %.2f%% above 5%% gate\n", overhead > "/dev/stderr"
                exit 1
            }
            if (woverhead > 5) {
                printf "check.sh: warehouse overhead %.2f%% above 5%% gate\n", woverhead > "/dev/stderr"
                exit 1
            }
        }'
    mv BENCH_campaign.json.tmp BENCH_campaign.json

    # The >= 10x gate below divides a recovery on full re-analysis by one
    # on the incremental engine. ISSUE 22 moved the numerator more than the
    # denominator: a full Analyze walks each net's pins once instead of
    # three to five times (-40 %), while an incremental update, which was
    # already touching few nets, saves the same walks on those alone
    # (-22 %) — 524 / 31 ms = 17x became 311 / 24 ms = 13x on the same
    # host. The ratio fell because the baseline got faster, not because
    # the engine got slower; the gate stays at 10x.
    out=$(go test -run=NONE -bench='BenchmarkRecover(Full|Incremental)$' -benchtime=1x ./internal/sizing/)
    echo "$out"
    echo "$out" | awk '
        function metric(name,   i) {
            for (i = 1; i <= NF; i++) if ($i == name) return $(i-1)
            return ""
        }
        /BenchmarkRecoverFull/ {
            full = $3; full_area = metric("area_um2"); full_wns = metric("wns_ps")
        }
        /BenchmarkRecoverIncremental/ {
            incr = $3; incr_area = metric("area_um2"); incr_wns = metric("wns_ps")
        }
        END {
            if (full == "" || incr == "" || incr == 0) {
                print "check.sh: could not parse sta benchmark output" > "/dev/stderr"
                exit 1
            }
            speedup = full / incr
            printf "sta_recover_speedup_x=%.2f\n", speedup
            printf "{\"benchmark\":\"sta_recover\",\"full_ns_per_op\":%s,\"incremental_ns_per_op\":%s,\"speedup_x\":%.2f,\"area_um2\":%s,\"wns_ps\":%s}\n", \
                full, incr, speedup, incr_area, incr_wns > "BENCH_sta.json.tmp"
            if (full_area != incr_area || full_wns != incr_wns) {
                printf "check.sh: full/incremental QoR mismatch: area %s vs %s, wns %s vs %s\n", \
                    full_area, incr_area, full_wns, incr_wns > "/dev/stderr"
                exit 1
            }
            if (speedup < 10) {
                printf "check.sh: sta recover speedup %.2fx below 10x gate\n", speedup > "/dev/stderr"
                exit 1
            }
        }'
    mv BENCH_sta.json.tmp BENCH_sta.json

    # Live doomed-run abort gate: supervised execution of the Fig. 9
    # test corpus must reclaim >= 20% of detail-route iterations while
    # every run the card lets finish stays bit-identical to the
    # uninterrupted baseline (qor_mismatches must be 0).
    out=$(go run ./cmd/doomed -doomed-live -seed 1 -scale small)
    echo "$out"
    echo "$out" | awk -F= '
        /^doomed_live_baseline_iters=/      { base = $2 }
        /^doomed_live_saved_iters=/         { saved = $2 }
        /^doomed_live_saved_pct=/           { pct = $2 }
        /^doomed_live_posthoc_saved_iters=/ { posthoc = $2 }
        /^doomed_live_qor_mismatches=/      { mism = $2 }
        /^doomed_live_error_pct=/           { err = $2 }
        END {
            if (base == "" || pct == "" || mism == "") {
                print "check.sh: could not parse doomed-live output" > "/dev/stderr"
                exit 1
            }
            printf "doomed_live_reclaimed_pct=%s\n", pct
            printf "{\"benchmark\":\"doomed_live\",\"baseline_iters\":%s,\"saved_iters\":%s,\"saved_pct\":%s,\"posthoc_saved_iters\":%s,\"qor_mismatches\":%s,\"error_pct\":%s}\n", \
                base, saved, pct, posthoc, mism, err > "BENCH_doomed.json.tmp"
            if (mism + 0 != 0) {
                printf "check.sh: doomed-live QoR drift on %s finished runs\n", mism > "/dev/stderr"
                exit 1
            }
            if (pct + 0 < 20) {
                printf "check.sh: doomed-live reclaimed %s%% below 20%% gate\n", pct > "/dev/stderr"
                exit 1
            }
        }'
    mv BENCH_doomed.json.tmp BENCH_doomed.json

    # Parallel placement gate: the serial annealer vs the territory
    # engine at one worker per processor, min-of-5 (single runs drift on
    # a shared machine). The parallel engine must stay within 1.10x the
    # serial one's HPWL, must be worker-invariant (the bench reruns the
    # anneal on a crew of one), and must pay for its second processor.
    out=$(go test -run=NONE -bench='BenchmarkPlace(Anneal|Parallel)$' \
        -benchtime=2x -count=5 ./internal/place/)
    echo "$out"
    echo "$out" | awk -v ncpu="$(getconf _NPROCESSORS_ONLN)" '
        function metric(name,   i) {
            for (i = 1; i <= NF; i++) if ($i == name) return $(i-1)
            return ""
        }
        /BenchmarkPlaceAnneal/ {
            if (smin == "" || $3 + 0 < smin) smin = $3 + 0
            s_hpwl = metric("hpwl")
        }
        /BenchmarkPlaceParallel/ {
            if (pmin == "" || $3 + 0 < pmin) pmin = $3 + 0
            p_hpwl = metric("hpwl"); p_acc = metric("accepted")
            w1_hpwl = metric("hpwl_w1"); w1_acc = metric("accepted_w1")
        }
        END {
            if (smin == "" || pmin == "" || pmin == 0 || w1_hpwl == "") {
                print "check.sh: could not parse place benchmark output" > "/dev/stderr"
                exit 1
            }
            speedup = smin / pmin
            printf "place_speedup_x=%.2f\n", speedup
            printf "{\"benchmark\":\"place\",\"cpus\":%d,\"serial_ns_per_op\":%.0f,\"parallel_ns_per_op\":%.0f,\"speedup_x\":%.2f,\"serial_hpwl_um\":%s,\"hpwl_um\":%s,\"moves_accepted\":%s}\n", \
                ncpu, smin, pmin, speedup, s_hpwl, p_hpwl, p_acc > "BENCH_place.json.tmp"
            if (p_hpwl != w1_hpwl || p_acc != w1_acc) {
                printf "check.sh: place engine not worker-invariant: hpwl %s vs %s at one worker, accepted %s vs %s\n", \
                    p_hpwl, w1_hpwl, p_acc, w1_acc > "/dev/stderr"
                exit 1
            }
            if (p_hpwl + 0 > 1.10 * s_hpwl) {
                printf "check.sh: parallel placement HPWL %s more than 1.10x the serial annealer %s\n", p_hpwl, s_hpwl > "/dev/stderr"
                exit 1
            }
            if (ncpu + 0 >= 2 && speedup < 1.05) {
                printf "check.sh: place speedup %.2fx over the serial annealer below 1.05x gate on %d CPUs\n", speedup, ncpu > "/dev/stderr"
                exit 1
            }
        }'
    mv BENCH_place.json.tmp BENCH_place.json

    # Sharded routing gate: same shape — the region-sharded router at 1
    # worker vs every region in flight, byte-identical congestion
    # picture and detail-route DRV checksum.
    out=$(go test -run=NONE -bench='BenchmarkRoute(Serial|Sharded)$' \
        -benchtime=2x -count=3 ./internal/route/)
    echo "$out"
    echo "$out" | awk '
        function metric(name,   i) {
            for (i = 1; i <= NF; i++) if ($i == name) return $(i-1)
            return ""
        }
        /BenchmarkRouteSerial/ {
            if (smin == "" || $3 + 0 < smin) smin = $3 + 0
            s_wl = metric("wirelength"); s_of = metric("overflow")
            s_drv = metric("drv_sum")
        }
        /BenchmarkRouteSharded/ {
            if (pmin == "" || $3 + 0 < pmin) pmin = $3 + 0
            p_wl = metric("wirelength"); p_of = metric("overflow")
            p_drv = metric("drv_sum")
        }
        END {
            if (smin == "" || pmin == "" || pmin == 0) {
                print "check.sh: could not parse route benchmark output" > "/dev/stderr"
                exit 1
            }
            speedup = smin / pmin
            printf "route_speedup_x=%.2f\n", speedup
            printf "{\"benchmark\":\"route\",\"serial_ns_per_op\":%.0f,\"sharded_ns_per_op\":%.0f,\"speedup_x\":%.2f,\"wirelength_um\":%s,\"overflow_total\":%s,\"drv_sum\":%s}\n", \
                smin, pmin, speedup, p_wl, p_of, p_drv > "BENCH_route.json.tmp"
            if (s_wl != p_wl || s_of != p_of || s_drv != p_drv) {
                printf "check.sh: route serial/sharded QoR mismatch: wirelength %s vs %s, overflow %s vs %s, drv_sum %s vs %s\n", \
                    s_wl, p_wl, s_of, p_of, s_drv, p_drv > "/dev/stderr"
                exit 1
            }
            if (speedup < 2) {
                printf "check.sh: route speedup %.2fx below 2x gate\n", speedup > "/dev/stderr"
                exit 1
            }
        }'
    mv BENCH_route.json.tmp BENCH_route.json

    # Speculative stage-overlap gate, min-of-3 on both pairs. The sweep
    # pair runs the downstream-knob sweep speculation exists for, at one
    # campaign license, so all reclaimed wall-clock is stage overlap; it
    # must reclaim >= 20% at an identical qor_hash. The miss pair runs
    # an always-wrong oracle over an upstream-varying sweep — every
    # chain launches, burns, and is reaped — and must cost <= 5% over
    # its non-speculative reference, again at an identical qor_hash.
    out=$(go test -run=NONE -bench='BenchmarkSpec(SweepBase|SweepOverlap|MissBase|MissSpec)$' \
        -benchtime=1x -count=3 ./internal/spec/)
    echo "$out"
    echo "$out" | awk '
        function metric(name,   i) {
            for (i = 1; i <= NF; i++) if ($i == name) return $(i-1)
            return ""
        }
        /BenchmarkSpecSweepBase/ {
            if (sb == "" || $3 + 0 < sb) sb = $3 + 0
            sb_qor = metric("qor_hash")
        }
        /BenchmarkSpecSweepOverlap/ {
            if (so == "" || $3 + 0 < so) so = $3 + 0
            so_qor = metric("qor_hash")
        }
        /BenchmarkSpecMissBase/ {
            if (mb == "" || $3 + 0 < mb) mb = $3 + 0
            mb_qor = metric("qor_hash")
        }
        /BenchmarkSpecMissSpec/ {
            if (ms == "" || $3 + 0 < ms) ms = $3 + 0
            ms_qor = metric("qor_hash")
        }
        END {
            if (sb == "" || so == "" || so == 0 || mb == "" || mb == 0 || ms == "") {
                print "check.sh: could not parse spec benchmark output" > "/dev/stderr"
                exit 1
            }
            reclaimed = (1 - so / sb) * 100
            overhead = (ms / mb - 1) * 100
            printf "spec_reclaimed_pct=%.1f\n", reclaimed
            printf "spec_miss_overhead_pct=%.1f\n", overhead
            printf "{\"benchmark\":\"spec\",\"sweep_base_ns_per_op\":%.0f,\"sweep_overlap_ns_per_op\":%.0f,\"reclaimed_pct\":%.1f,\"miss_base_ns_per_op\":%.0f,\"miss_spec_ns_per_op\":%.0f,\"miss_overhead_pct\":%.1f,\"sweep_qor_hash\":%s,\"miss_qor_hash\":%s}\n", \
                sb, so, reclaimed, mb, ms, overhead, so_qor, ms_qor > "BENCH_spec.json.tmp"
            if (sb_qor != so_qor) {
                printf "check.sh: speculative sweep QoR drift: qor_hash %s vs %s\n", \
                    sb_qor, so_qor > "/dev/stderr"
                exit 1
            }
            if (mb_qor != ms_qor) {
                printf "check.sh: all-miss speculation QoR drift: qor_hash %s vs %s\n", \
                    mb_qor, ms_qor > "/dev/stderr"
                exit 1
            }
            if (reclaimed < 20) {
                printf "check.sh: speculation reclaimed %.1f%% below 20%% gate\n", reclaimed > "/dev/stderr"
                exit 1
            }
            if (overhead > 5) {
                printf "check.sh: all-miss speculation overhead %.1f%% above 5%% gate\n", overhead > "/dev/stderr"
                exit 1
            }
        }'
    mv BENCH_spec.json.tmp BENCH_spec.json

    # Consolidated bench table: every gate above must have written its
    # file. A missing file means a gate silently did not run — fail
    # loudly rather than report a partial picture.
    echo "=== bench summary ==="
    missing=0
    for f in BENCH_campaign.json BENCH_sta.json BENCH_doomed.json \
             BENCH_place.json BENCH_route.json BENCH_spec.json; do
        if [ ! -f "$f" ]; then
            echo "check.sh: expected bench file $f is missing" >&2
            missing=1
            continue
        fi
        printf '%s\n' "$f"
        sed 's/^/    /' "$f"
    done
    if [ "$missing" -ne 0 ]; then
        exit 1
    fi
fi

if [ "${1:-}" = "crash" ]; then
    # Crash-safety tier.
    #
    # 1. Race-enabled tests over the durability substrate: the journal,
    #    the watchdog, and the campaign/flow paths that append to and
    #    replay from it.
    go test -race ./internal/journal/... ./internal/sched/... \
        ./internal/campaign/... ./internal/flow/... ./internal/logfile/...

    # 2. Fuzz smoke of the journal decoder: no input may crash it or
    #    make recovery report success on a corrupt record.
    go test -run=NONE -fuzz='FuzzJournalDecode' -fuzztime=10s ./internal/journal/

    # 3. Real kill -9 soak. A journaled sweep is killed at several
    #    points in its life, then resumed; the resumed output must be
    #    byte-identical to an uninterrupted reference sweep. One killed
    #    journal is additionally resumed at worker counts 1 and 8 to
    #    prove worker count never changes results.
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    go build -o "$work/sprflow" ./cmd/sprflow

    sweep_flags="-design tiny -sweep 4 -parallel 4"
    "$work/sprflow" $sweep_flags > "$work/ref.out"

    kept=""
    for delay in 0.05 0.15 0.3 0.45 0.6 0.9; do
        jdir="$work/j$delay"
        "$work/sprflow" $sweep_flags -journal "$jdir" \
            > "$work/killed.out" 2> "$work/killed.err" &
        pid=$!
        sleep "$delay"
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true

        # Snapshot the as-killed journal (possibly torn) before resume
        # heals it, so the worker-count check below resumes the same
        # partial journal the kill left behind.
        cp -r "$jdir" "$work/snap"

        "$work/sprflow" $sweep_flags -journal "$jdir" -resume \
            > "$work/resumed.out" 2> "$work/resumed.err"
        if ! diff -u "$work/ref.out" "$work/resumed.out"; then
            echo "check.sh: resumed sweep (killed at ${delay}s) differs from reference" >&2
            exit 1
        fi
        # Remember one journal that was killed mid-flight (some points
        # durable, some not) for the worker-count invariance check.
        if [ -z "$kept" ] && grep -q 'replayed=[1-9]' "$work/resumed.err"; then
            kept="$work/kept"
            mv "$work/snap" "$kept"
        else
            rm -rf "$work/snap"
        fi
        rm -rf "$jdir"
    done

    if [ -n "$kept" ]; then
        for workers in 1 8; do
            jdir="$work/kept-w$workers"
            cp -r "$kept" "$jdir"
            "$work/sprflow" -design tiny -sweep 4 -parallel "$workers" \
                -journal "$jdir" -resume \
                > "$work/w$workers.out" 2> "$work/w$workers.err"
            if ! diff -u "$work/ref.out" "$work/w$workers.out"; then
                echo "check.sh: resume at $workers workers differs from reference" >&2
                exit 1
            fi
        done
    else
        echo "check.sh: no mid-flight journal captured for worker sweep (machine too fast/slow?)" >&2
    fi
    echo "crash_soak=ok"
fi

if [ "${1:-}" = "trace" ]; then
    # Observability demo gate: a real traced sweep must produce a
    # non-empty, well-formed Chrome trace covering the whole stack.
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    go run ./cmd/sprflow -design tiny -sweep 2 -parallel 2 \
        -place-workers 2 -route-tiles 2 \
        -trace "$work/trace.json" > /dev/null
    go run ./cmd/tracecheck \
        -require 'campaign.run,campaign.point,flow.run,flow.synth,flow.droute,route.iter,sched.wait,place.move,route.tile' \
        "$work/trace.json"
    echo "trace_demo=ok"
fi

if [ "${1:-}" = "spec" ]; then
    # Speculation tier.
    #
    # 1. Doubled race tests over the speculative flow path: real and
    #    speculative stage chains share netlist clones, slots, and the
    #    oracle concurrently.
    go test -race -count=2 ./internal/flow/... ./internal/spec/...

    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    go build -o "$work/sprflow" ./cmd/sprflow

    # 2. End-to-end determinism: a speculative sweep's stdout must be
    #    byte-identical to the non-speculative reference at every worker
    #    count — whichever speculations hit or miss, commit decisions
    #    are pure functions of (prediction, real result).
    sweep_flags="-design tiny -sweep 4"
    "$work/sprflow" $sweep_flags -parallel 4 > "$work/ref.out"
    for workers in 1 2 4 8; do
        "$work/sprflow" $sweep_flags -parallel "$workers" -speculate \
            > "$work/spec-w$workers.out" 2> "$work/spec-w$workers.err"
        if ! diff -u "$work/ref.out" "$work/spec-w$workers.out"; then
            echo "check.sh: speculative sweep at $workers workers differs from reference" >&2
            exit 1
        fi
    done
    # The oracle must actually have been consulted: at 1 worker the
    # sweep warms the artifact memory point by point, so later points
    # are offered predictions (hits or misses — either proves life).
    if ! grep -Eq '^predict\.(synth|place)\.(hit|miss) [1-9]' "$work/spec-w1.err"; then
        echo "check.sh: speculative sweep consulted no predictions" >&2
        cat "$work/spec-w1.err" >&2
        exit 1
    fi

    # 3. kill -9 mid-speculation: resume the journaled speculative
    #    sweep; its output must still match the non-speculative,
    #    uninterrupted reference byte-for-byte.
    jdir="$work/j"
    "$work/sprflow" $sweep_flags -parallel 4 -speculate -journal "$jdir" \
        > /dev/null 2>&1 &
    pid=$!
    sleep 0.3
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    "$work/sprflow" $sweep_flags -parallel 4 -speculate -journal "$jdir" -resume \
        > "$work/resumed.out" 2> /dev/null
    if ! diff -u "$work/ref.out" "$work/resumed.out"; then
        echo "check.sh: resumed speculative sweep differs from reference" >&2
        exit 1
    fi

    # 4. Deterministic overlap accounting through the doomed CLI:
    #    speculation must commit downstream stages and must never drift
    #    QoR from the non-speculative reference.
    out=$(go run ./cmd/doomed -speculate -seed 1 -scale small)
    echo "$out"
    echo "$out" | awk -F= '
        /^spec_overlap_committed=/      { committed = $2 }
        /^spec_overlap_qor_mismatches=/ { mism = $2 }
        END {
            if (committed == "" || mism == "") {
                print "check.sh: could not parse spec-overlap output" > "/dev/stderr"
                exit 1
            }
            if (committed + 0 < 1) {
                print "check.sh: speculation committed no stages" > "/dev/stderr"
                exit 1
            }
            if (mism + 0 != 0) {
                printf "check.sh: speculation drifted QoR on %s points\n", mism > "/dev/stderr"
                exit 1
            }
        }'
    echo "spec_gate=ok"
fi

if [ "${1:-}" = "dist" ]; then
    # Distributed campaign tier.
    #
    # 1. Doubled race tests over the service: the store and its WAL,
    #    the coordinator's queue, dispatch and requeue, the worker
    #    engine, and the front door campaigns are submitted through
    #    with its slot ledger.
    go test -race -count=2 ./internal/dist/... ./internal/metrics/... \
        ./internal/sched/...

    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    go build -o "$work/sprflow" ./cmd/sprflow
    go build -o "$work/campd" ./cmd/campd

    # 2. Byte-identity across node counts: the sharded service's stdout
    #    must equal the single-process sweep's at 1, 2, and 4 loopback
    #    worker nodes.
    sweep_flags="-design tiny -sweep 4 -parallel 2"
    "$work/sprflow" $sweep_flags > "$work/ref.out"
    for nodes in 1 2 4; do
        "$work/sprflow" $sweep_flags -dist-nodes "$nodes" > "$work/dist.out"
        if ! diff -u "$work/ref.out" "$work/dist.out"; then
            echo "check.sh: dist sweep at $nodes nodes differs from single-process reference" >&2
            exit 1
        fi
    done

    # 3. kill -9 a worker *process* mid-campaign, in a real multi-process
    #    campd deployment (store + two workers + coordinator over
    #    loopback HTTP). The coordinator must move the dead node's
    #    points onto the survivor and still emit the single-process
    #    reference bytes.
    shape="-design pulpino -freq 0.5 -seed 1 -effort 2 -sweep 4"
    "$work/sprflow" $shape -parallel 1 > "$work/pref.out"

    "$work/campd" -mode store -addr 127.0.0.1:0 \
        > "$work/store.out" 2> /dev/null &
    store_pid=$!
    saddr=$(wait_addr store "$work/store.out")
    for wid in w0 w1; do
        "$work/campd" -mode worker -id "$wid" -addr 127.0.0.1:0 \
            -store-url "http://$saddr" $shape -parallel 1 \
            > "$work/$wid.out" 2> /dev/null &
        eval "${wid}_pid=\$!"
    done
    w0addr=$(wait_addr "worker w0" "$work/w0.out")
    w1addr=$(wait_addr "worker w1" "$work/w1.out")
    "$work/campd" -mode coord -store-url "http://$saddr" \
        -nodes "w0=http://$w0addr,w1=http://$w1addr" $shape -parallel 1 \
        > "$work/coord.out" 2> "$work/coord.err" &
    coord_pid=$!
    sleep 0.4
    kill -9 "$w0_pid" 2>/dev/null || true
    wait "$coord_pid"
    kill "$w1_pid" "$store_pid" 2>/dev/null || true
    wait "$w1_pid" "$store_pid" 2>/dev/null || true
    if ! diff -u "$work/pref.out" "$work/coord.out"; then
        echo "check.sh: campaign with a worker killed -9 differs from reference" >&2
        exit 1
    fi
    cat "$work/coord.err"
    if ! grep -q '[1-9][0-9]* node deaths' "$work/coord.err"; then
        echo "check.sh: worker kill -9 landed outside the campaign window (machine too fast/slow?)" >&2
    fi

    # 4. kill -9 the whole sharded deployment mid-campaign, then rerun
    #    it against the same store WAL: recovered points are served from
    #    the store, only the lost ones recompute, and stdout must still
    #    be byte-identical to the uninterrupted reference.
    recovered=""
    for delay in 0.25 0.4 0.6; do
        jdir="$work/dwal$delay"
        "$work/sprflow" $shape -parallel 1 -dist-nodes 2 -journal "$jdir" \
            > /dev/null 2>&1 &
        pid=$!
        sleep "$delay"
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
        "$work/sprflow" $shape -parallel 1 -dist-nodes 2 -journal "$jdir" \
            > "$work/rerun.out" 2> "$work/rerun.err"
        if ! diff -u "$work/pref.out" "$work/rerun.out"; then
            echo "check.sh: rerun against the store WAL (killed at ${delay}s) differs from reference" >&2
            exit 1
        fi
        if grep -q 'replayed=[1-9]' "$work/rerun.err"; then
            recovered=1
        fi
    done
    if [ -z "$recovered" ]; then
        echo "check.sh: no kill left a recoverable store WAL (machine too fast/slow?)" >&2
    fi

    # 5. Throughput gate: the pulpino-proxy sweep through the full
    #    service at one loopback worker node vs four, min-of-3, at an
    #    identical qor_hash. Four nodes must clear 1.8x.
    #    The row is written under $work (removed by the trap) and only
    #    moved into the tree once the gate holds, so a failed gate leaves
    #    nothing behind to be committed.
    out=$(go test -run=NONE -bench='BenchmarkDistSweep(1|4)$' \
        -benchtime=1x -count=3 .)
    echo "$out"
    echo "$out" | awk -v row="$work/BENCH_dist.json" '
        function metric(name,   i) {
            for (i = 1; i <= NF; i++) if ($i == name) return $(i-1)
            return ""
        }
        /BenchmarkDistSweep1/ {
            if (n1 == "" || $3 + 0 < n1) n1 = $3 + 0
            q1 = metric("qor_hash")
        }
        /BenchmarkDistSweep4/ {
            if (n4 == "" || $3 + 0 < n4) n4 = $3 + 0
            q4 = metric("qor_hash")
        }
        END {
            if (n1 == "" || n4 == "" || n4 == 0) {
                print "check.sh: could not parse dist benchmark output" > "/dev/stderr"
                exit 1
            }
            speedup = n1 / n4
            printf "dist_speedup_x=%.2f\n", speedup
            printf "{\"benchmark\":\"dist\",\"one_node_ns_per_op\":%.0f,\"four_node_ns_per_op\":%.0f,\"speedup_x\":%.2f,\"qor_hash\":%s}\n", \
                n1, n4, speedup, q4 > row
            if (q1 != q4) {
                printf "check.sh: 1-node/4-node QoR mismatch: qor_hash %s vs %s\n", \
                    q1, q4 > "/dev/stderr"
                exit 1
            }
            if (speedup < 1.8) {
                printf "check.sh: dist speedup %.2fx below 1.8x gate\n", speedup > "/dev/stderr"
                exit 1
            }
        }'
    mv "$work/BENCH_dist.json" BENCH_dist.json
    echo "dist_gate=ok"
fi

if [ "${1:-}" = "chaos" ]; then
    # Network chaos tier: the distributed service under deterministic
    # fault injection. The contract is the hard one from the failure
    # model: with at least one live node, any fault schedule — dropped
    # responses, injected 5xx, stalls, duplicated deliveries, scheduled
    # partitions, a permanently killed worker — must still produce
    # stdout byte-identical to the single-process sweep.
    #
    # 1. Doubled race tests over the chaos engine and the hardened
    #    dist layer (RPC retries, membership, worker degrade/backfill,
    #    graceful shutdown, goroutine-leak check).
    go test -race -count=2 ./internal/chaos/... ./internal/dist/...

    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    go build -o "$work/sprflow" ./cmd/sprflow
    go build -o "$work/campd" ./cmd/campd

    # 2. Soak matrix: every chaos profile x several seeds, 3 worker
    #    nodes, diffed byte-for-byte against the single-process
    #    reference. The partition profile runs a longer sweep so the
    #    campaign is still in flight when the 400ms heal window opens
    #    and the dead node can rejoin mid-run.
    sweep3="-design tiny -sweep 3 -parallel 2"
    sweep10="-design tiny -sweep 10 -parallel 2"
    "$work/sprflow" $sweep3 > "$work/ref3.out"
    "$work/sprflow" $sweep10 > "$work/ref10.out"
    rejoined=""
    for profile in flaky slow partition kill; do
        case "$profile" in
            partition) flags=$sweep10; ref="$work/ref10.out" ;;
            *)         flags=$sweep3;  ref="$work/ref3.out" ;;
        esac
        for seed in 1 2 3; do
            "$work/sprflow" $flags -dist-nodes 3 \
                -chaos-profile "$profile" -chaos-seed "$seed" \
                > "$work/chaos.out" 2> "$work/chaos.err"
            if ! diff -u "$ref" "$work/chaos.out"; then
                echo "check.sh: chaos profile=$profile seed=$seed differs from single-process reference" >&2
                cat "$work/chaos.err" >&2
                exit 1
            fi
            if ! grep -q 'chaos\.fault\.injected' "$work/chaos.err"; then
                echo "check.sh: chaos profile=$profile seed=$seed injected no faults" >&2
                exit 1
            fi
            if grep -q 'rejoined=[1-9]' "$work/chaos.err"; then
                rejoined=1
            fi
        done
        echo "chaos_profile_${profile}=ok"
    done
    if [ -z "$rejoined" ]; then
        # Rejoin timing rides wall-clock probe cadence; the hard
        # guarantee lives in TestSuspectDeadRejoinServesPoints.
        echo "check.sh: no soak run saw a node rejoin (machine too fast/slow?)" >&2
    fi

    # 3. Durability under chaos: a flaky-profile sweep writing the
    #    store WAL, then a clean (no-chaos) rerun against the same WAL
    #    must replay finished points and emit the reference bytes.
    "$work/sprflow" $sweep3 -dist-nodes 3 -journal "$work/cwal" \
        -chaos-profile flaky -chaos-seed 1 > /dev/null 2>&1
    "$work/sprflow" $sweep3 -dist-nodes 2 -journal "$work/cwal" \
        > "$work/rerun.out" 2> "$work/rerun.err"
    if ! diff -u "$work/ref3.out" "$work/rerun.out"; then
        echo "check.sh: rerun against a WAL written under chaos differs from reference" >&2
        exit 1
    fi
    if ! grep -q 'replayed=[1-9]' "$work/rerun.err"; then
        echo "check.sh: WAL written under chaos replayed nothing" >&2
        exit 1
    fi

    # 4. Graceful SIGTERM: a campd store (with WAL) and worker must
    #    drain and exit 0 on SIGTERM — the orchestrator default — and
    #    the store's journal must come back clean afterwards.
    "$work/campd" -mode store -addr 127.0.0.1:0 -journal "$work/gwal" \
        > "$work/gstore.out" 2> "$work/gstore.err" &
    store_pid=$!
    saddr=$(wait_addr store "$work/gstore.out")
    "$work/campd" -mode worker -id w0 -addr 127.0.0.1:0 \
        -store-url "http://$saddr" -design tiny -sweep 2 -parallel 1 \
        > "$work/gw0.out" 2> "$work/gw0.err" &
    w0_pid=$!
    wait_addr "worker w0" "$work/gw0.out" > /dev/null
    kill -TERM "$w0_pid"
    if wait "$w0_pid"; then :; else
        echo "check.sh: campd worker exited non-zero ($?) on SIGTERM" >&2
        exit 1
    fi
    grep -q 'points completed' "$work/gw0.err" || {
        echo "check.sh: campd worker skipped its drain path on SIGTERM" >&2
        exit 1
    }
    kill -TERM "$store_pid"
    if wait "$store_pid"; then :; else
        echo "check.sh: campd store exited non-zero ($?) on SIGTERM" >&2
        exit 1
    fi
    grep -q 'entries at shutdown' "$work/gstore.err" || {
        echo "check.sh: campd store skipped its drain path on SIGTERM" >&2
        exit 1
    }
    "$work/campd" -mode store -addr 127.0.0.1:0 -journal "$work/gwal" \
        > "$work/gstore2.out" 2> "$work/gstore2.err" &
    store_pid=$!
    wait_addr store "$work/gstore2.out" > /dev/null
    kill -TERM "$store_pid"
    wait "$store_pid" || true
    grep -q '(0 corrupt)' "$work/gstore2.err" || {
        echo "check.sh: store WAL corrupt after graceful SIGTERM" >&2
        cat "$work/gstore2.err" >&2
        exit 1
    }
    echo "chaos_gate=ok"
fi

if [ "${1:-}" = "obs" ]; then
    # Distributed observability tier: every run queryable, every node's
    # spans in one stitched trace.
    #
    # 1. Doubled race tests over the tracing substrate (collector,
    #    shipper, histogram merge), the dist layer that propagates trace
    #    context, and the warehouse (WAL, dedupe, HTTP ingest, tail).
    go test -race -count=2 ./internal/trace/... ./internal/dist/... \
        ./internal/warehouse/...

    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    go build -o "$work/sprflow" ./cmd/sprflow
    go build -o "$work/tracecheck" ./cmd/tracecheck

    # 2. Single-node reference: sweep stdout + canonical warehouse dump.
    #    -parallel 1 gives each node one slot in the 3-node runs below,
    #    so every node computes points — the stitched trace must carry
    #    spans from all three, not just the fastest.
    sweep_flags="-design tiny -sweep 4 -parallel 1"
    "$work/sprflow" $sweep_flags \
        -warehouse mem -warehouse-dump "$work/ref.dump" \
        > "$work/ref.out" 2> /dev/null

    # 3. 3-node DistSweep: byte-identical stdout AND warehouse dump,
    #    plus one stitched, tracecheck-valid Chrome trace whose events
    #    cover the coordinator, the per-attempt RPCs, and worker/store
    #    server spans from every node.
    "$work/sprflow" $sweep_flags -dist-nodes 3 \
        -trace "$work/dist-trace.json" \
        -warehouse mem -warehouse-dump "$work/dist.dump" \
        > "$work/dist.out" 2> /dev/null
    if ! diff -u "$work/ref.out" "$work/dist.out"; then
        echo "check.sh: 3-node observed sweep differs from single-node reference" >&2
        exit 1
    fi
    if ! diff -u "$work/ref.dump" "$work/dist.dump"; then
        echo "check.sh: 3-node warehouse dump differs from single-node dump" >&2
        exit 1
    fi
    "$work/tracecheck" \
        -require 'dist.coordinate,dist.dispatch,dist.rpc,dist.worker.run,dist.store.put,campaign.run,campaign.point,flow.synth,flow.sta' \
        -require-arg 'node=w0,node=w1,node=w2' \
        "$work/dist-trace.json"

    # 4. The same deployment under the flaky chaos profile: retries show
    #    up as dist.rpc spans (outcome retry) in the stitched trace, the
    #    fault counters hit the metrics ledger, and neither stdout nor
    #    the warehouse dump moves a byte. (Node coverage is asserted on
    #    the clean trace above — under chaos, reroutes can legitimately
    #    starve a suspected node of points.)
    "$work/sprflow" $sweep_flags -dist-nodes 3 \
        -chaos-profile flaky -chaos-seed 7 \
        -trace "$work/chaos-trace.json" \
        -warehouse mem -warehouse-dump "$work/chaos.dump" \
        > "$work/chaos.out" 2> "$work/chaos.err"
    if ! diff -u "$work/ref.out" "$work/chaos.out"; then
        echo "check.sh: observed sweep under chaos differs from reference" >&2
        cat "$work/chaos.err" >&2
        exit 1
    fi
    if ! diff -u "$work/ref.dump" "$work/chaos.dump"; then
        echo "check.sh: warehouse dump under chaos differs from reference" >&2
        exit 1
    fi
    if ! grep -q 'chaos\.fault\.injected' "$work/chaos.err"; then
        echo "check.sh: obs chaos run injected no faults" >&2
        exit 1
    fi
    "$work/tracecheck" \
        -require 'dist.coordinate,dist.dispatch,dist.rpc,dist.worker.run,campaign.point,flow.sta' \
        "$work/chaos-trace.json"

    # 5. Warehouse durability: kill -9 a run writing the warehouse WAL,
    #    rerun against the same directory — replayed records and fresh
    #    computes must dedupe into a dump byte-identical to the
    #    reference.
    "$work/sprflow" $sweep_flags -dist-nodes 3 -warehouse "$work/whwal" \
        > /dev/null 2>&1 &
    pid=$!
    sleep 0.3
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    "$work/sprflow" $sweep_flags -dist-nodes 3 -warehouse "$work/whwal" \
        -warehouse-dump "$work/replay.dump" \
        > "$work/replay.out" 2> "$work/replay.err"
    if ! diff -u "$work/ref.out" "$work/replay.out"; then
        echo "check.sh: sweep rerun over a killed warehouse WAL differs from reference" >&2
        exit 1
    fi
    if ! diff -u "$work/ref.dump" "$work/replay.dump"; then
        echo "check.sh: warehouse dump after kill -9 replay differs from reference" >&2
        exit 1
    fi
    if ! grep -q ' [1-9][0-9]* replayed' "$work/replay.err"; then
        echo "check.sh: kill -9 left no warehouse records to replay (machine too fast/slow?)" >&2
    fi
    echo "obs_gate=ok"
fi

echo "check: default tier ${tier_s}s, total ${SECONDS}s"
