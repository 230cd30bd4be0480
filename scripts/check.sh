#!/usr/bin/env bash
# Tier-1 gate for the repository.
#
#   scripts/check.sh          gofmt + vet + build + race-enabled tests
#                             (with a doubled concurrency tier on the
#                             scheduler, campaign engine, the keyed
#                             journal, the parallel place & route
#                             kernels, and the flow's stage loop),
#                             then vet + tests of the nested
#                             benchmark module, then 10 s of fuzzing per
#                             byte-facing decoder (campaign entry,
#                             journal segment, warehouse ingest, gob
#                             cell library, span collector, campaign
#                             front door and its spec decoder, warehouse
#                             WAL replay against json.Unmarshal), of the
#                             placer's net extremes (FuzzNetExtremes)
#                             and of the one-walk net electricals
#                             (FuzzElectricals);
#                             the last line printed is this default
#                             tier's wall time (and the whole run's,
#                             when a mode below follows it)
#   scripts/check.sh bench    also run every Benchmark...Gate: each runs
#                             its benchmark pair at the pair's own
#                             -benchtime and min-of-N, logs both sides,
#                             and fails on a broken bound (campaign
#                             trace/warehouse overhead, sta recover,
#                             dist); the bound that needs
#                             no clock (doomed-run abort) is a test in
#                             the default tier
#   scripts/check.sh paper    also regenerate every paper artefact at
#                             paper scale (TestExperimentsQuotesPaperScale)
#                             and fail when EXPERIMENTS.md's quoted block
#                             for it differs
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
#                             rerun against the store WAL, and
#                             BenchmarkDistGate (4 nodes >= 1.8x 1 node
#                             at an identical qor_hash)
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
# Concurrency tier: the license pool and campaign engine carry the
# cancellation/retry machinery every experiment fans out on, the
# tracer/metrics server are written to by every one of those goroutines
# at once, the place/route kernels are cancelled from campaign and
# watchdog goroutines, and the flow's stage loop may abandon a
# watchdog-reaped stage that is still running; run their race tests
# twice (fresh caches each time) before the full suite; the dist
# service rides along because its store and coordinator queues are
# hammered by every worker node at once, and the journal because every
# durable store is a journal.Keyed whose puts, gets and Close race by
# design.
go test -race -count=2 ./internal/sched/... ./internal/campaign/... \
    ./internal/journal/... ./internal/trace/... ./internal/metrics/... \
    ./internal/place/... ./internal/route/... \
    ./internal/flow/... ./internal/dist/...
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
    internal/warehouse:FuzzDecodeRecord cmd/metricsd:FuzzCampaignSpec; do
    go test -run='^$' -fuzz="^${target#*:}\$" -fuzztime=10s -fuzzminimizetime=100x "./${target%%:*}"
done
# Every mode below runs after the default tier; its time is kept for the
# closing line.
tier_s=$SECONDS

if [ "${1:-}" = "bench" ]; then
    # go test runs one package's benchmarks at a time, but vets the other
    # packages beside them: with vet on, the first gate shares the host
    # with vet for its first seconds (the default tier has vetted already).
    go test -vet=off -run '^$' -bench 'Gate$' -benchtime 1x ./...
fi

if [ "${1:-}" = "paper" ]; then
    go test -run '^TestExperimentsQuotesPaperScale$' -scale=paper .
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

        "$work/sprflow" $sweep_flags -journal "$jdir" \
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
                -journal "$jdir" \
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
        -trace "$work/trace.json" > /dev/null
    go run ./cmd/tracecheck \
        -require 'campaign.run,campaign.point,flow.run,flow.synth,flow.droute,route.iter,sched.wait,flow.place,flow.groute' \
        "$work/trace.json"
    echo "trace_demo=ok"
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
    go test -run '^$' -bench '^BenchmarkDistGate$' -benchtime 1x .
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
