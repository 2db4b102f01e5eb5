#!/usr/bin/env bash
# crash_smoke.sh — chaos harness for the durable job plane.
#
# Reference pass: boots mispserve with a journal, runs a job
# uninterrupted, and records its artifact hash and how long it took.
# Then, for 20 seeded kill points, it boots a fresh daemon, submits the
# same job detached, SIGKILLs the daemon at a seeded-random offset inside
# the reference run's duration (landing anywhere from "barely admitted"
# through "mid-simulation between checkpoints" to "already done"),
# restarts it on the same journal/cache directories, and asserts the
# journaled job is neither lost nor duplicated: it is listed and either
# completes with artifact bytes identical to the uninterrupted run or
# fails with a recorded diagnosis, or its done record retired it and
# resubmitting the request is a cache hit with identical bytes. At least
# one seed must have resumed the job from a checkpoint image
# (serve.resume.restores on the restarted daemon), or the smoke never
# reached the mid-run case it exists for.
set -euo pipefail

KILLS=${KILLS:-20}
ROOT=$(mktemp -d "${TMPDIR:-/tmp}/misp-crash-smoke.XXXXXX")
# The daemon is built inside the run's own directory, so the trap removes
# it and concurrent runs never share one binary.
BIN=${BIN:-$ROOT/mispserve}
SERVER_PID=
trap 'kill -9 "$SERVER_PID" 2>/dev/null || true; rm -rf "$ROOT"' EXIT

mkdir -p "$(dirname "$BIN")" # a caller-supplied BIN may name a new directory
go build -o "$BIN" ./cmd/mispserve

REQ='{"kind":"run","app":"dense_mmm","size":"test","topology":[3]}'

# boot <workdir> <log>: start the daemon journaled+checkpointed in
# <workdir>, wait for its listen line in <log> (one log per boot, so a
# restart never parses its predecessor's address), set URL/SERVER_PID.
boot() {
    local work=$1 log=$2
    : >"$log" # exists before the daemon's own redirect opens it, so sed below can read it
    "$BIN" -addr 127.0.0.1:0 -cachedir "$work/cache" -journal "$work/journal" \
        -checkpoint-cycles 50000 -workers 2 >"$log" 2>&1 &
    SERVER_PID=$!
    local addr=
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^mispserve: listening on \([^ ]*\).*/\1/p' "$log")
        [ -n "$addr" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null || { cat "$log"; echo "FAIL: daemon died at boot"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { cat "$log"; echo "FAIL: daemon never bound"; exit 1; }
    URL="http://$addr"
}

stop() { # graceful: SIGTERM and wait
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    for _ in $(seq 1 100); do
        kill -0 "$SERVER_PID" 2>/dev/null || break
        sleep 0.1
    done
    kill -9 "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=
}

# wait_terminal <id> <outfile>: poll the job until done/failed; view
# JSON lands in <outfile>.
wait_terminal() {
    local id=$1 out=$2
    for _ in $(seq 1 300); do
        if curl -fsS "$URL/v1/jobs/$id" >"$out" 2>/dev/null; then
            grep -q '"status": "done"\|"status": "failed"' "$out" && return 0
        fi
        sleep 0.1
    done
    return 1
}

# --- reference pass: uninterrupted run -------------------------------
mkdir -p "$ROOT/ref"
boot "$ROOT/ref" "$ROOT/ref/serve.log"
VIEW=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$REQ" "$URL/v1/jobs?wait=1")
grep -q '"status": "done"' <<<"$VIEW" || { echo "$VIEW"; echo "FAIL: reference run not done"; exit 1; }
# The kill offsets are drawn inside the reference run's own wall time.
REF_MS=$(( $(echo "$VIEW" | sed -n 's/.*"wall_ms": \([0-9]*\).*/\1/p' | head -1) + 1 ))
REFJOB=$(echo "$VIEW" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1)
curl -fsS "$URL/v1/jobs/$REFJOB/artifacts/summary.json" >"$ROOT/ref.json"
curl -fsS "$URL/v1/jobs/$REFJOB/artifacts/counters.csv" >"$ROOT/ref.csv"
test -s "$ROOT/ref.json" || { echo "FAIL: empty reference artifact"; exit 1; }
stop
echo "reference recorded ($(wc -c <"$ROOT/ref.json") bytes, ${REF_MS} ms)"

# --- seeded kill points ----------------------------------------------
RESUMED=0
RESTORED=0
RETIRED=0
for SEED in $(seq 1 "$KILLS"); do
    WORK="$ROOT/kill-$SEED"
    mkdir -p "$WORK"
    boot "$WORK" "$WORK/serve-1.log"

    ACCEPT=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$REQ" "$URL/v1/jobs")
    JOB=$(echo "$ACCEPT" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1)
    [ -n "$JOB" ] || { echo "$ACCEPT"; echo "FAIL(seed $SEED): submit rejected"; exit 1; }

    # The seeded kill point, a drawn fraction of the reference run's
    # duration. $RANDOM is deterministic per seed, so on the same host a
    # failing offset reproduces.
    RANDOM=$SEED
    MS=$(( RANDOM * REF_MS / 32768 ))
    SLEEP=$(printf '%d.%03d' $((MS / 1000)) $((MS % 1000)))
    sleep "$SLEEP"
    kill -9 "$SERVER_PID"
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=

    # Restart on the same journal/cache: the job must still be listed, or
    # have been retired by its done record with its result in the cache.
    # Whether the killed daemon journaled that record is read off the WAL
    # first, so an unlisted job without one is caught as lost.
    DONE_REC=0
    grep -aqF "{\"op\":\"done\",\"id\":\"$JOB\"}" "$WORK/journal/journal.wal" && DONE_REC=1
    boot "$WORK" "$WORK/serve-2.log"
    LIST=$(curl -fsS "$URL/v1/jobs")
    COUNT=$(echo "$LIST" | grep -c '"id":' || true)
    if [ "$COUNT" -eq 0 ]; then
        [ "$DONE_REC" -eq 1 ] || { echo "FAIL(seed $SEED, slept $SLEEP): job $JOB neither listed nor retired by a done record after SIGKILL (lost)"; exit 1; }
        VIEW=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$REQ" "$URL/v1/jobs?wait=1")
        grep -q '"cached": true' <<<"$VIEW" || { echo "$VIEW"; echo "FAIL(seed $SEED, slept $SLEEP): retired job $JOB's request is not a cache hit after SIGKILL"; exit 1; }
        echo "$VIEW" >"$WORK/view.json"
        JOB=$(echo "$VIEW" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1)
        RETIRED=$((RETIRED + 1))
    else
        [ "$COUNT" -eq 1 ] || { echo "$LIST"; echo "FAIL(seed $SEED, slept $SLEEP): $COUNT jobs after restart, want 1 (duplicated)"; exit 1; }
        grep -q "\"id\": \"$JOB\"" <<<"$LIST" || { echo "$LIST"; echo "FAIL(seed $SEED): job $JOB lost across SIGKILL"; exit 1; }
        wait_terminal "$JOB" "$WORK/view.json" || { cat "$WORK/view.json"; echo "FAIL(seed $SEED): job never settled after resume"; exit 1; }
    fi
    if grep -q '"status": "done"' "$WORK/view.json"; then
        curl -fsS "$URL/v1/jobs/$JOB/artifacts/summary.json" >"$WORK/summary.json"
        curl -fsS "$URL/v1/jobs/$JOB/artifacts/counters.csv" >"$WORK/counters.csv"
        cmp "$ROOT/ref.json" "$WORK/summary.json" || { echo "FAIL(seed $SEED, slept $SLEEP): summary.json differs after crash-resume"; exit 1; }
        cmp "$ROOT/ref.csv" "$WORK/counters.csv"  || { echo "FAIL(seed $SEED, slept $SLEEP): counters.csv differs after crash-resume"; exit 1; }
    else
        # Failed is acceptable only with a recorded diagnosis.
        grep -q '"error": "..*"' "$WORK/view.json" || { cat "$WORK/view.json"; echo "FAIL(seed $SEED): failed with no diagnosis"; exit 1; }
        echo "  seed $SEED: failed with recorded diagnosis (allowed)"
    fi
    grep -q '"recovered": true' "$WORK/view.json" && RESUMED=$((RESUMED + 1))
    METRICS=$(curl -fsS "$URL/metrics")
    if grep -Eq '^counter +serve\.resume\.restores +[1-9]' <<<"$METRICS"; then
        RESTORED=$((RESTORED + 1))
    fi
    stop
    echo "seed $SEED ok (slept $SLEEP, job $JOB)"
done

[ "$RESTORED" -gt 0 ] || { echo "FAIL: no seed resumed the job from a checkpoint image ($RESUMED recovered, $RETIRED retired; kill offsets drawn inside ${REF_MS} ms)"; exit 1; }
echo "PASS: crash smoke ($KILLS seeded SIGKILLs inside ${REF_MS} ms, $RESUMED recovered jobs, $RESTORED resumed from a checkpoint, $RETIRED retired, zero lost, zero duplicated, byte-identical artifacts)"
