#!/bin/sh
# verify.sh — the repository's verification gate: vet (plus staticcheck when
# installed), gofmt, build, a guard keeping the paper harness
# (internal/experiments, microbench, baseline) out of hmsserved and hmsplace,
# a guard keeping the advisor the one profiling path of serving code (registry
# requests in the service and the fleet through advisor.KernelPredictor), a
# guard keeping advisor.Search the one evaluation loop of hmsplace, a
# guard keeping internal/memsys the one writer of the memory-event counters
# shared by the model and the simulator, a guard keeping one DRAM model per
# side (c_a defined once, in dram.Analyzer; no Mapping setting), a guard
# keeping internal/queuing the one implementation of the queuing formula, a
# guard keeping internal/memsys the one reader of traces' lane patterns, vet and
# test of the perfbench benchmark module, the full test suite under the race
# detector, the placement-space walk and resolution-kernel oracle fuzz seeds
# under race, one-pass benchmark smokes of parallel ranking, chiplet
# exhaustive search, the memoized profiling front door, delta evaluation,
# contribution builds and simulator runs, the wall-clock bounds the race pass
# skips (run here without -race), a short
# smoke of the observability no-op-overhead contract (the disabled recorder
# must add zero allocations), a short chaos soak (scripts/soak.sh runs the
# long one), and an end-to-end service smoke covering warm boot,
# crash/restart recovery, corrupt-snapshot cold boot (docs/ROBUSTNESS.md),
# a sampled Chrome trace written after the SIGTERM drain (handoff arrows and
# pool search spans), an arch alias on /v1/fleet/rank, and the multi-arch
# surface — /v1/arches capacity tables and a beam-4
# /v1/compare over the chiplet's grown placement space completing under
# budget with the golden K80-vs-chiplet top-1 divergence (docs/ARCHES.md).
# Performance itself is measured by perfbench (BENCHMARK.json). Run from the
# repo root:
#
#   ./scripts/verify.sh
#
# Exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

# staticcheck is a stricter lint than vet; run it when the toolchain has it,
# fall back silently to the vet-only gate when it doesn't (the CI image may
# not bundle it, and the gate must not require network installs).
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ./..."
    staticcheck ./...
else
    echo "== staticcheck: not installed, vet gate only"
fi

echo "== gofmt"
# Every tracked Go file, perfbench included, must be gofmt-clean (untracked
# build output is not checked).
unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
    echo "verify: not gofmt-clean (run gofmt -w):" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== serving binaries stay off the paper harness"
# hmsserved and hmsplace train their model through internal/train; the
# figure harness, Algorithm 1 and the comparison models must never be linked
# into them.
harness=$(go list -deps ./cmd/hmsserved ./cmd/hmsplace |
    grep -E '^gpuhms/internal/(experiments|microbench|baseline)$' || true)
if [ -n "$harness" ]; then
    echo "verify: serving binaries link the paper harness:" >&2
    echo "$harness" >&2
    exit 1
fi

echo "== one profiling path for serving code"
# Serving code profiles a sample placement through the advisor only
# (PredictorContext, KernelPredictor); core.NewPredictor is called by the
# advisor, the facade, the model itself and the paper harness
# (internal/train, internal/experiments), and hmsplace reaches the simulator
# through the advisor, never directly.
stray=$(git grep --untracked -l 'core\.NewPredictor(' -- '*.go' ':!*_test.go' ':!perfbench' \
    ':!internal/advisor' ':!internal/train' ':!internal/experiments' ':!internal/core' ':!gpuhms.go' || true)
if [ -n "$stray" ]; then
    echo "verify: core.NewPredictor called outside the profiling path:" >&2
    echo "$stray" >&2
    exit 1
fi
if git grep --untracked -q '"gpuhms/internal/sim"' -- 'cmd/hmsplace/*.go' ':!*_test.go'; then
    echo "verify: cmd/hmsplace imports gpuhms/internal/sim; profile through the advisor" >&2
    exit 1
fi
# The service and the fleet serve registry kernels, so they profile through
# advisor.KernelPredictor, whose memo keeps one profile per (kernel, scale,
# sample); PredictorContext and RankPlacements profile on every call.
direct=$(git grep --untracked -n -E 'PredictorContext\(|RankPlacements\(' -- \
    'internal/service/*.go' 'internal/fleet/*.go' ':!*_test.go' || true)
if [ -n "$direct" ]; then
    echo "verify: serving code profiles a registry kernel outside advisor.KernelPredictor:" >&2
    echo "$direct" >&2
    exit 1
fi

echo "== one evaluation loop"
# Every hmsplace ranking mode runs through advisor.Search, which owns the
# eval, progress and coverage telemetry; hmsplace itself must not report
# progress or name an advisor_ metric.
if git grep --untracked -n -E 'ReportProgress\(|"advisor_' -- 'cmd/hmsplace/*.go' ':!*_test.go'; then
    echo "verify: cmd/hmsplace records search telemetry; rank through advisor.Search" >&2
    exit 1
fi

echo "== one event vocabulary"
# The model and the simulator count instructions through the same functions:
# CountCompute, Resolved.CountEvents, ProbeCounts.CountEvents and
# CountRowEvents in internal/memsys. No other non-test Go outside
# internal/perf (which defines the counters) and internal/dram (which tallies
# row outcomes) writes an issue-accounting or memory-event counter of
# perf.Events. internal/faults is exempt: it corrupts finished measurements
# on purpose (fault injection), it does not count them.
counters='IssueSlots|InstIssued|InstExecuted|InstInteger|LdstIssued|Replay(GlobalDiv|ConstMiss|ConstDiv|Shared|Atomic)|GlobalRequests|ConstantRequest|TextureRequests|SharedRequests|L2Transactions|L2Misses|ConstAccesses|ConstMisses|TexAccesses|TexMisses|SharedBankConflicts|DRAMRequests|RowHits|RowMisses|RowConflicts'
if git grep --untracked -n -E "\.($counters)[[:space:]]*(\+\+|--|[-+*/]?=[^=])" -- '*.go' ':!*_test.go' \
    ':!internal/memsys' ':!internal/dram' ':!internal/perf' ':!internal/faults'; then
    echo "verify: a perf.Events counter is written outside internal/memsys; count through memsys" >&2
    exit 1
fi
# The replay and bank-conflict accounting lives in internal/memsys; the
# packages it was folded from must not come back beside it.
folded=$(go list ./... | grep -E '^gpuhms/internal/(replay|sharedmem)$' || true)
if [ -n "$folded" ]; then
    echo "verify: replay accounting outside internal/memsys:" >&2
    echo "$folded" >&2
    exit 1
fi

echo "== one DRAM model"
# internal/dram holds one DRAM model per side: dram.System is the
# simulator's timing model, dram.Analyzer computes every per-bank statistic,
# so the c_a arithmetic (MeanCa) is defined once, in internal/dram/analyze.go,
# and read only by the simulator's Fig 4 collection. Model and simulator use
# the mapping derived from the topology; neither carries a Mapping setting.
dramdup=$( (git grep --untracked -n -E 'func (\([^)]*\) )?MeanCa\(' -- '*.go' ':!*_test.go' \
        ':!internal/dram/analyze.go' || true
    git grep --untracked -n -F '.MeanCa(' -- '*.go' ':!*_test.go' ':!internal/dram' ':!internal/sim' || true
    git grep --untracked -n -E '^[[:space:]]*Mapping[[:space:]]+dram\.Mapping' -- \
        'internal/core/*.go' 'internal/sim/*.go' ':!*_test.go' || true) )
if [ -n "$dramdup" ]; then
    echo "verify: a second DRAM statistic or mapping setting beside internal/dram's Analyzer:" >&2
    echo "$dramdup" >&2
    exit 1
fi

echo "== one queuing formula"
# internal/queuing holds Eq 9 once: a prepared Network evaluates every bank
# and controller stream at a dilation, and QueuingDelay runs the same
# per-server code. No other non-test Go reads a stream's arrival or service
# statistics or composes the network latency itself.
queues=$(git grep --untracked -n -E '\.(TauA|SigmaA|TauS|SigmaS)\b|queuing\.SystemLatency' -- '*.go' \
    ':!*_test.go' ':!perfbench' ':!internal/queuing' || true)
if [ -n "$queues" ]; then
    echo "verify: queuing statistics read outside internal/queuing; evaluate through queuing.Network:" >&2
    echo "$queues" >&2
    exit 1
fi

echo "== one lane-resolution path"
# Memory instructions store an interned lane pattern and a first index;
# internal/memsys resolves them (memoized per pattern and residue) and
# internal/trace owns the pattern table. No other non-test Go reads the
# table or expands lanes itself, so the model and the simulator see every
# warp access through ResolveScratch; cmd/tracedump, which prints traces, is
# the one exception.
lanes=$(git grep --untracked -n -E '\.Patterns\b|\.Lanes\(' -- '*.go' ':!*_test.go' ':!perfbench' \
    ':!internal/trace' ':!internal/memsys' ':!cmd/tracedump' || true)
if [ -n "$lanes" ]; then
    echo "verify: lane patterns read outside internal/trace and internal/memsys; resolve through memsys:" >&2
    echo "$lanes" >&2
    exit 1
fi

echo "== perfbench module: vet + test"
# perfbench (the repository benchmark, BENCHMARK.json) is its own Go module,
# so the ./... steps never compile it; vet and test it here so a change that
# breaks the benchmark fails this gate rather than the benchmark run.
GOWORK=off GOPROXY=off go -C perfbench vet ./...
GOWORK=off GOPROXY=off go -C perfbench test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== placement-space walk fuzz seeds under race"
# FuzzSpaceWalk pins the exhaustive search's per-worker reflected range walks
# (placement.Space.GrayWalk) to a division-based reference decode: every
# legal placement yielded exactly once across 1-16 worker ranges, each with
# its IndexOf and the one array it moved.
go test -race ./internal/placement/ -run 'FuzzSpaceWalk' -count=1

echo "== resolution kernel oracle fuzz seeds under race"
# FuzzResolveMatchesReference pins ResolveScratch, ProbeLines and the shared
# event counters to the hand-counted reference per-lane resolution on every
# arch and memory space.
go test -race ./internal/memsys/ -run 'FuzzResolveMatchesReference' -count=1

echo "== parallel rank bench smoke"
# One pass of the scaling-curve benchmark; the determinism suite itself runs
# in the race pass above.
go test ./internal/advisor/ -run '^$' -bench 'BenchmarkRankParallel' -benchtime 1x -benchmem -count=1

echo "== exhaustive search bench smoke"
# One cold exhaustive top-10 search of spmv on one worker, on the chiplet
# (remote variants reuse their local projection's merge) and on k80 (no
# remote spaces, no merge memo).
go test ./internal/advisor/ -run '^$' -bench 'BenchmarkSearchExhaustive' -benchtime 1x -benchmem -count=1

echo "== profile memo bench smoke"
# The registry front door on k80 spmv: a cold advisor profiles, a warm one
# serves the profile from its memo.
go test ./internal/advisor/ -run '^$' -bench 'BenchmarkKernelPredictor' -benchtime 1x -benchmem -count=1

echo "== delta eval bench smoke"
# Delta and full evaluation, and one Eq 1 assembly (the queuing fixed point
# over the prepared network) on k80 and the chiplet.
go test ./internal/core/ -run '^$' -bench 'BenchmarkPredict(Delta|Full)$|BenchmarkDRAMLatency' -benchtime 20x -benchmem -count=1

echo "== resolution kernel bench smoke"
go test ./internal/core/ -run '^$' -bench 'BenchmarkBuildContribution' -benchtime 1x -benchmem -count=1
go test ./internal/sim/ -run '^$' -bench 'BenchmarkSimRun' -benchtime 1x -benchmem -count=1

echo "== wall-clock bounds (no race)"
# The timing assertions skip under -race, which distorts timings: delta
# evaluation >=5x a full one, parallel versus sequential cold rank, spmv
# search p50 per strategy, cached versus cold rank (>=10x, p99 within the
# 250ms SLO target), and warm versus cold boot (>=5x) (docs/PERFORMANCE.md).
go test ./internal/core/ ./internal/advisor/ ./internal/service/ -count=1 \
    -run '^(TestDeltaSpeedup|TestRankParallelSpeedup|TestSearchWallClock|TestCachedRankLatency|TestWarmBootLatency)$'

echo "== obs no-op overhead smoke"
go test ./internal/sim/ -run 'TestRunContextNopRecorderAddsNoAllocs' -count=1
go test ./internal/sim/ -run '^$' -bench 'BenchmarkRunContextRecorder' -benchtime 3x -benchmem -count=1

echo "== chaos soak (short mode)"
# The full harness is scripts/soak.sh; the gate runs a short hammer phase so
# every verify exercises fault injection, shedding, and snapshot cycling, and
# checks that every response under concurrent load carries its X-Request-ID.
HMS_SOAK_MS=1500 go test ./internal/service/ -race -run 'TestSoakChaos' -count=1

echo "== advisory service smoke"
# Start hmsserved on an ephemeral port, wait for readiness (the listener now
# binds before the advisor trains, so the banner no longer implies warm),
# hit /healthz and /v1/rank, then check SIGTERM drains to a clean exit.
# Skipped when curl is unavailable.
if command -v curl >/dev/null 2>&1; then
    go build -o /tmp/hmsserved.verify ./cmd/hmsserved
    SNAP=/tmp/hmsserved.verify.snap
    rm -f "$SNAP"

    # wait_ready <logfile>: parse the banner for the resolved address, then
    # poll /readyz until it flips 503 -> 200. Sets ADDR.
    wait_ready() {
        ADDR=""
        for _ in $(seq 1 120); do
            ADDR=$(sed -n 's/^hmsserved: listening on \([^ ]*\).*/\1/p' "$1")
            [ -n "$ADDR" ] && break
            kill -0 "$SRV_PID" 2>/dev/null || { cat "$1"; exit 1; }
            sleep 0.5
        done
        [ -n "$ADDR" ] || { echo "verify: hmsserved never came up"; cat "$1"; exit 1; }
        for _ in $(seq 1 240); do
            [ "$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")" = "200" ] && return 0
            kill -0 "$SRV_PID" 2>/dev/null || { cat "$1"; exit 1; }
            sleep 0.5
        done
        echo "verify: hmsserved never became ready"; cat "$1"; exit 1
    }

    /tmp/hmsserved.verify -addr 127.0.0.1:0 -archs k80,chiplet -snapshot "$SNAP" -snapshot-interval 0 >/tmp/hmsserved.verify.out 2>&1 &
    SRV_PID=$!
    trap 'kill "$SRV_PID" 2>/dev/null || true' EXIT
    wait_ready /tmp/hmsserved.verify.out
    curl -fsS "http://$ADDR/healthz" | grep -q '"status":"ok"'
    curl -fsS "http://$ADDR/v1/rank" -d '{"kernel":"fft","top_k":3}' -o /tmp/hmsserved.verify.body1 -D - | grep -qi 'X-HMS-Cache: miss'
    grep -q '"ranked"' /tmp/hmsserved.verify.body1
    # A sub-exhaustive strategy must echo itself in the coverage record, and
    # an unknown one must map to the unknown_strategy error code (a 400).
    curl -fsS "http://$ADDR/v1/rank" -d '{"kernel":"fft","strategy":"greedy"}' | grep -q '"strategy":"greedy"'
    curl -sS "http://$ADDR/v1/rank" -d '{"kernel":"fft","strategy":"annealing"}' | grep -q '"code":"unknown_strategy"'
    # Fleet smoke: a bundled contended mix must solve (miss on first ask),
    # and an unknown fleet solver must map to unknown_strategy (docs/FLEET.md).
    curl -fsS "http://$ADDR/v1/fleet/rank" -d '{"mix":"shared-squeeze"}' -o /tmp/hmsserved.verify.fleet1 -D - | grep -qi 'X-HMS-Cache: miss'
    grep -q '"objective_value"' /tmp/hmsserved.verify.fleet1
    curl -sS "http://$ADDR/v1/fleet/rank" -d '{"mix":"balanced","solver":"annealing"}' | grep -q '"code":"unknown_strategy"'
    # Multi-arch smoke (docs/ARCHES.md): /v1/arches must list both warm
    # arches with the chiplet's remote capacity rows, and a beam-4
    # /v1/compare over the chiplet's grown placement space must complete
    # within its budget — a 200 with both per-arch rankings present and no
    # partial truncation — with the bundled tablelookup kernel's top-1
    # diverging between the K80 (texture) and the chiplet (shared staging).
    curl -fsS "http://$ADDR/v1/arches" -o /tmp/hmsserved.verify.arches
    grep -q '"name":"chiplet"' /tmp/hmsserved.verify.arches
    grep -q '"name":"k80"' /tmp/hmsserved.verify.arches
    grep -q '"space":"constantRemote"' /tmp/hmsserved.verify.arches
    COMPARE_CODE=$(curl -sS -o /tmp/hmsserved.verify.compare -w '%{http_code}' \
        "http://$ADDR/v1/compare" \
        -d '{"kernel":"tablelookup","arches":["k80","chiplet"],"top_k":1,"strategy":"beam-4","max_candidates":500,"timeout_ms":30000}')
    [ "$COMPARE_CODE" = "200" ] || {
        echo "verify: beam-4 compare on the chiplet space did not complete under budget (status $COMPARE_CODE)"
        cat /tmp/hmsserved.verify.compare; exit 1; }
    grep -q '"placement":"table:T,in:S,out:S"' /tmp/hmsserved.verify.compare
    grep -q '"placement":"table:S,in:S,out:S"' /tmp/hmsserved.verify.compare

    # Crash/restart smoke: SIGHUP forces a snapshot, kill -9 simulates a
    # crash, and the restarted server must answer the warmed ranking from its
    # restored cache, byte-identical.
    kill -HUP "$SRV_PID"
    for _ in $(seq 1 120); do [ -s "$SNAP" ] && break; sleep 0.5; done
    [ -s "$SNAP" ] || { echo "verify: SIGHUP never produced a snapshot"; exit 1; }
    kill -9 "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true
    # The restarted server also samples every request's spans into a trace
    # written after its SIGTERM drain (checked below).
    TRACE=/tmp/hmsserved.verify.trace.json
    rm -f "$TRACE"
    /tmp/hmsserved.verify -addr 127.0.0.1:0 -snapshot "$SNAP" -snapshot-interval 0 \
        -trace-sample 1 -trace-out "$TRACE" >/tmp/hmsserved.verify.out2 2>&1 &
    SRV_PID=$!
    trap 'kill "$SRV_PID" 2>/dev/null || true' EXIT
    wait_ready /tmp/hmsserved.verify.out2
    curl -fsS "http://$ADDR/v1/rank" -d '{"kernel":"fft","top_k":3}' -o /tmp/hmsserved.verify.body2 -D - | grep -qi 'X-HMS-Cache: hit'
    cmp -s /tmp/hmsserved.verify.body1 /tmp/hmsserved.verify.body2 || {
        echo "verify: restored ranking differs from pre-crash ranking"; exit 1; }
    # The fleet solve must also survive the crash: restored from the snapshot,
    # answered as a cache hit, byte-identical to the pre-crash response.
    curl -fsS "http://$ADDR/v1/fleet/rank" -d '{"mix":"shared-squeeze"}' -o /tmp/hmsserved.verify.fleet2 -D - | grep -qi 'X-HMS-Cache: hit'
    cmp -s /tmp/hmsserved.verify.fleet1 /tmp/hmsserved.verify.fleet2 || {
        echo "verify: restored fleet solve differs from pre-crash solve"; exit 1; }
    # The fleet route canonicalizes an arch alias at decode like /v1/rank:
    # a 200, not a 404 unknown_arch. Not cached yet, so it runs on the pool.
    FLEET_CODE=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ADDR/v1/fleet/rank" \
        -d '{"arch":"tesla-k80","mix":"balanced"}')
    [ "$FLEET_CODE" = "200" ] || {
        echo "verify: fleet arch alias answered $FLEET_CODE, want 200"; exit 1; }
    kill -TERM "$SRV_PID"
    wait "$SRV_PID"    # graceful shutdown must exit 0
    trap - EXIT
    grep -q "drained, bye" /tmp/hmsserved.verify.out2
    # The drained trace holds the pool side of the sampled miss above: both
    # ends of a handoff flow arrow and the pool-track search span.
    tr -d '\n' <"$TRACE" | grep -Eq '"name": "handoff", *"ph": "s"' || {
        echo "verify: sampled trace has no handoff flow start"; exit 1; }
    tr -d '\n' <"$TRACE" | grep -Eq '"name": "handoff", *"ph": "f"' || {
        echo "verify: sampled trace has no handoff flow end"; exit 1; }
    grep -q '"name": "search [0-9a-f]' "$TRACE" || {
        echo "verify: sampled trace has no pool search span"; exit 1; }

    # Corrupt-snapshot smoke: damage the snapshot, and the next boot must
    # degrade to cold — skipped entries counted in /metrics, requests fine.
    dd if=/dev/zero of="$SNAP" bs=1 seek=40 count=8 conv=notrunc 2>/dev/null
    /tmp/hmsserved.verify -addr 127.0.0.1:0 -snapshot "$SNAP" -snapshot-interval 0 >/tmp/hmsserved.verify.out3 2>&1 &
    SRV_PID=$!
    trap 'kill "$SRV_PID" 2>/dev/null || true' EXIT
    wait_ready /tmp/hmsserved.verify.out3
    curl -fsS "http://$ADDR/v1/rank" -d '{"kernel":"fft","top_k":3}' | grep -q '"ranked"'
    curl -fsS "http://$ADDR/metrics" | grep 'service_snapshot_entries_skipped_total' | grep -qv ' 0$' || {
        echo "verify: corrupt snapshot left skipped counter at zero"; exit 1; }
    kill -TERM "$SRV_PID"
    wait "$SRV_PID"
    trap - EXIT
    rm -f /tmp/hmsserved.verify /tmp/hmsserved.verify.out /tmp/hmsserved.verify.out2 \
        /tmp/hmsserved.verify.out3 /tmp/hmsserved.verify.body1 /tmp/hmsserved.verify.body2 \
        /tmp/hmsserved.verify.fleet1 /tmp/hmsserved.verify.fleet2 \
        /tmp/hmsserved.verify.arches /tmp/hmsserved.verify.compare "$SNAP" "$TRACE"
    echo "service smoke: OK (warm boot, crash/restart, corrupt snapshot, fleet, fleet arch alias, multi-arch compare, sampled trace)"
else
    echo "service smoke: skipped (curl not found)"
fi

echo "verify: OK"
