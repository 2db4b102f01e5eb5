#!/usr/bin/env bash
# overload_smoke.sh — flood test of mispserve's resource governance.
#
# Boots mispserve with a memory budget below one machine's configured
# simulated physical memory (128 MiB), one worker and a one-slot queue.
# A serial small-size eval sweep occupies the worker; once it runs, a
# flood of distinct tiny runs fills the queue and the rest must shed.
# Asserts the overload contract end to end:
#
#   - a budget below the configured PhysMem admits work: memory is
#     governed by the measured heap, and any 413 fails;
#   - the daemon survives the flood (alive and answering /healthz/live
#     throughout — overload must never OOM-kill or wedge it);
#   - at least one job is admitted and at least one is shed with 429 +
#     a sensible integer Retry-After (>= 1s), and every shed is counted
#     in serve.rejected.queue_full + serve.pressure.sheds;
#   - every accepted job reaches a terminal state: nothing is lost,
#     no job id is ever issued twice;
#   - readiness (/healthz/ready) and the serve.pressure.* metrics
#     surface the governance state, and agree: ready is 200 exactly
#     when serve.pressure.level is 0 (nominal);
#   - a body carrying the removed "priority" field is refused with 400;
#   - a resubmission of a completed request is a cache hit;
#   - SIGTERM still drains cleanly under governance.
set -euo pipefail

WORK=$(mktemp -d "${TMPDIR:-/tmp}/misp-overload-smoke.XXXXXX")
# The daemon is built inside the run's own directory, so the trap removes
# it and concurrent runs never share one binary.
BIN=${BIN:-$WORK/mispserve}
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

mkdir -p "$(dirname "$BIN")" # a caller-supplied BIN may name a new directory
go build -o "$BIN" ./cmd/mispserve

: >"$WORK/serve.log" # exists before the daemon's own redirect opens it, so sed below can read it
"$BIN" -addr 127.0.0.1:0 -cachedir "$WORK/cache" -journal "$WORK/journal" \
    -mem-budget 128m -queue 1 -workers 1 >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!

ADDR=
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^mispserve: listening on \([^ ]*\).*/\1/p' "$WORK/serve.log")
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log"; echo "FAIL: daemon died"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { cat "$WORK/serve.log"; echo "FAIL: daemon never bound"; exit 1; }
URL="http://$ADDR"
echo "daemon at $URL (mem-budget 128m, 1 worker, queue 1)"

curl -fsS "$URL/healthz/live"  | grep -q '"status": "live"'  || { echo "FAIL: liveness"; exit 1; }
curl -fsS "$URL/healthz/ready" | grep -q '"status": "ready"' || { echo "FAIL: readiness before flood"; exit 1; }

# The occupant: a serial small eval sweep (48 machines one after
# another, about a second) holds the one worker for the whole flood.
# Its id is the first accepted one.
CODE=$(curl -s -o "$WORK/resp.sweep" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d '{"kind":"sweep","size":"small","parallel":1}' "$URL/v1/jobs")
[ "$CODE" = 413 ] && { cat "$WORK/resp.sweep"; echo; echo "FAIL: sweep judged over-budget at 128m (413)"; exit 1; }
[ "$CODE" = 202 ] || { cat "$WORK/resp.sweep"; echo "FAIL: sweep submission got $CODE, want 202"; exit 1; }
SWEEP_ID=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$WORK/resp.sweep" | head -1)
for _ in $(seq 1 100); do
    curl -fsS "$URL/v1/jobs/$SWEEP_ID" >"$WORK/view.sweep" || true
    grep -q '"status": "running"' "$WORK/view.sweep" && break
    sleep 0.05
done
curl -fsS "$URL/v1/jobs/$SWEEP_ID" >"$WORK/view.sweep" || true
grep -q '"status": "running"' "$WORK/view.sweep" || {
    cat "$WORK/view.sweep"
    echo "FAIL: sweep never ran (last status: $(sed -n 's/.*"status": "\([^"]*\)".*/\1/p' "$WORK/view.sweep" | head -1))"
    exit 1
}

# The flood: 12 distinct canonical requests (every workload, plus
# topology variants [4]..[7]) fired concurrently, detached, while the
# sweep holds the worker. The first to reach admission takes the queue
# slot (202); the rest are shed (429) by the queue bound, or by the
# pressure monitor should the heap reach its shed watermark.
APPS=(ADAt dense_mmm dense_mvm dense_mvm_sym gauss kmeans sparse_mvm sparse_mvm_sym)
REQS=()
CURLS=()
for i in $(seq 0 11); do
    if [ "$i" -lt 8 ]; then
        REQS+=("{\"kind\":\"run\",\"app\":\"${APPS[$i]}\",\"size\":\"test\",\"topology\":[3]}")
    else
        REQS+=("{\"kind\":\"run\",\"app\":\"dense_mmm\",\"size\":\"test\",\"topology\":[$((i - 4))]}")
    fi
    curl -s -o "$WORK/resp.$i" -w '%{http_code}' \
        -D "$WORK/hdr.$i" -X POST -H 'Content-Type: application/json' \
        -d "${REQS[$i]}" "$URL/v1/jobs" >"$WORK/code.$i" &
    CURLS+=($!)
done
wait "${CURLS[@]}"
ACCEPTED_IDS=("$SWEEP_ID")
SHED=0
FIRST_REQ=
for i in $(seq 0 11); do
    CODE=$(cat "$WORK/code.$i")
    case "$CODE" in
    202|200)
        ID=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$WORK/resp.$i" | head -1)
        [ -n "$ID" ] || { cat "$WORK/resp.$i"; echo "FAIL: accepted job without an id"; exit 1; }
        ACCEPTED_IDS+=("$ID")
        [ -n "$FIRST_REQ" ] || FIRST_REQ="${REQS[$i]}"
        ;;
    429)
        SHED=$((SHED + 1))
        RA=$(sed -n 's/^[Rr]etry-[Aa]fter: *\([0-9]*\).*/\1/p' "$WORK/hdr.$i" | head -1)
        [ -n "$RA" ] && [ "$RA" -ge 1 ] || { cat "$WORK/hdr.$i"; echo "FAIL: shed without a sensible Retry-After"; exit 1; }
        ;;
    413)
        cat "$WORK/resp.$i"; echo; echo "FAIL: tiny run judged over-budget (413)"; exit 1
        ;;
    *)
        cat "$WORK/resp.$i"; echo "FAIL: unexpected status $CODE"; exit 1
        ;;
    esac
done
echo "flood: $((${#ACCEPTED_IDS[@]} - 1)) accepted, $SHED shed"
[ -n "$FIRST_REQ" ] || { echo "FAIL: flood admitted nothing"; exit 1; }
[ "$SHED" -ge 1 ]   || { echo "FAIL: flood was never shed (queue bound not enforced)"; exit 1; }

# The daemon survived the flood.
kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log"; echo "FAIL: daemon died under flood"; exit 1; }
curl -fsS "$URL/healthz/live" | grep -q '"status": "live"' || { echo "FAIL: liveness under load"; exit 1; }

# No job id issued twice.
DUPES=$(printf '%s\n' "${ACCEPTED_IDS[@]}" | sort | uniq -d)
[ -z "$DUPES" ] || { echo "FAIL: duplicate job ids: $DUPES"; exit 1; }

# Every accepted job settles (done — the sweep and tiny runs on a
# healthy sim never fail; the point is none are lost to the overload
# machinery).
for ID in "${ACCEPTED_IDS[@]}"; do
    FINAL=$(curl -fsS "$URL/v1/jobs/$ID?wait=1")
    grep -q '"status": "done"' <<<"$FINAL" || { echo "$FINAL"; echo "FAIL: accepted job $ID did not complete"; exit 1; }
done

# Governance is visible: the pressure gauges exist, and every shed the
# flood saw was counted, by the queue bound or by the monitor.
METRICS=$(curl -fsS "$URL/metrics")
grep -q 'serve.pressure.level'        <<<"$METRICS" || { echo "FAIL: no serve.pressure.level metric"; exit 1; }
grep -q 'serve.pressure.budget_bytes' <<<"$METRICS" || { echo "FAIL: no serve.pressure.budget_bytes metric"; exit 1; }
COUNTED=$(echo "$METRICS" | awk '$2 == "serve.rejected.queue_full" || $2 == "serve.pressure.sheds" { n += $3 } END { print n + 0 }')
[ "$COUNTED" -eq "$SHED" ] || { echo "$METRICS"; echo "FAIL: queue_full + pressure.sheds = $COUNTED, observed $SHED sheds"; exit 1; }

# Readiness agrees with admission: 200 exactly when the monitor reads
# nominal (level 0), 503 at every level that sheds. The monitor may tick
# between two reads, so the probe is bracketed by two level readings
# and retried until they agree.
level() { curl -fsS "$URL/metrics" | awk '$2 == "serve.pressure.level" { print $3 }'; }
AGREED=
for _ in $(seq 1 20); do
    L1=$(level)
    READY=$(curl -s -o /dev/null -w '%{http_code}' "$URL/healthz/ready")
    L2=$(level)
    [ -n "$L1" ] && [ "$L1" = "$L2" ] || { sleep 0.1; continue; }
    if [ "$L1" -eq 0 ]; then WANT=200; else WANT=503; fi
    [ "$READY" = "$WANT" ] || { echo "FAIL: /healthz/ready $READY at serve.pressure.level $L1, want $WANT"; exit 1; }
    AGREED=1
    break
done
[ -n "$AGREED" ] || { echo "FAIL: serve.pressure.level never held still around a readiness probe"; exit 1; }

# The priority lane is gone: the strict decoder refuses a body that
# still carries the field, naming it.
CODE=$(curl -s -o "$WORK/prio" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d '{"kind":"run","app":"dense_mmm","size":"test","topology":[3],"priority":"interactive"}' "$URL/v1/jobs")
[ "$CODE" = 400 ] && grep -q priority "$WORK/prio" || { cat "$WORK/prio"; echo "FAIL: priority body got $CODE, want 400 naming the field"; exit 1; }

# Governance never sheds what the cache can answer: resubmitting a
# completed request is a cache hit.
HIT=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$FIRST_REQ" "$URL/v1/jobs?wait=1")
grep -q '"cached": true' <<<"$HIT" || { echo "$HIT"; echo "FAIL: completed request re-simulated or shed"; exit 1; }

# Clean drain under governance.
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: daemon did not drain within 10s"
    exit 1
fi
wait "$SERVER_PID" || { echo "FAIL: daemon exited non-zero after drain"; exit 1; }
grep -q 'drained cleanly' "$WORK/serve.log" || { cat "$WORK/serve.log"; echo "FAIL: no clean-drain message"; exit 1; }

echo "PASS: overload smoke at 128m (${#ACCEPTED_IDS[@]} completed, $SHED shed with Retry-After, alive throughout, clean drain)"
