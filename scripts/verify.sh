#!/bin/sh
# verify.sh — the repository's verification gate: vet (plus staticcheck when
# installed), build, vet and test of the perfbench benchmark module, the full
# test suite under the race detector, the shard-enumerator fuzz seeds under
# race, one-pass benchmark smokes of parallel ranking and delta evaluation,
# the wall-clock bounds the race pass skips (run here without -race), a short
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

echo "== go build ./..."
go build ./...

echo "== perfbench module: vet + test"
# perfbench (the repository benchmark, BENCHMARK.json) is its own Go module,
# so the ./... steps never compile it; vet and test it here so a change that
# breaks the benchmark fails this gate rather than the benchmark run.
GOWORK=off GOPROXY=off go -C perfbench vet ./...
GOWORK=off GOPROXY=off go -C perfbench test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== shard enumerator fuzz seeds under race"
# FuzzEnumerateShard pins union-of-shards == EnumerateSeq (no dup, no miss);
# replaying its seed corpus under the race detector also exercises the
# sharded enumeration the parallel ranking engine is built on.
go test -race ./internal/placement/ -run 'FuzzEnumerateShard' -count=1

echo "== parallel rank bench smoke"
# One pass of the scaling-curve benchmark; the determinism suite itself runs
# in the race pass above.
go test ./internal/advisor/ -run '^$' -bench 'BenchmarkRankParallel' -benchtime 1x -benchmem -count=1

echo "== delta eval bench smoke"
go test ./internal/core/ -run '^$' -bench 'BenchmarkPredict(Delta|Full)$' -benchtime 20x -benchmem -count=1

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
