#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the mispserve daemon.
#
# Boots mispserve on a random port with a disk-backed cache, submits a
# tiny run, waits for completion, fetches an artifact, then re-submits
# the identical request and asserts (a) it is reported as a cache hit
# and (b) the artifact bytes are identical. Exercises the full plane:
# HTTP admission, queue, worker execution, content-addressed cache,
# and graceful SIGTERM drain.
set -euo pipefail

WORK=$(mktemp -d "${TMPDIR:-/tmp}/misp-serve-smoke.XXXXXX")
# The daemon is built inside the run's own directory, so the trap removes
# it and concurrent runs never share one binary.
BIN=${BIN:-$WORK/mispserve}
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

mkdir -p "$(dirname "$BIN")" # a caller-supplied BIN may name a new directory
go build -o "$BIN" ./cmd/mispserve

: >"$WORK/serve.log" # exists before the daemon's own redirect opens it, so sed below can read it
"$BIN" -addr 127.0.0.1:0 -cachedir "$WORK/cache" >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!

# The daemon prints "mispserve: listening on <addr> (...)" once bound.
ADDR=
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^mispserve: listening on \([^ ]*\).*/\1/p' "$WORK/serve.log")
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log"; echo "FAIL: daemon died"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { cat "$WORK/serve.log"; echo "FAIL: daemon never bound"; exit 1; }
URL="http://$ADDR"
echo "daemon at $URL"

REQ='{"kind":"run","app":"dense_mmm","size":"test","topology":[3]}'

curl -fsS "$URL/healthz" | grep -q '"status": "ok"' || { echo "FAIL: healthz"; exit 1; }

# First submission: must simulate (no cache hit) and complete.
FIRST=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$REQ" "$URL/v1/jobs?wait=1")
grep -q '"status": "done"'  <<<"$FIRST" || { echo "$FIRST"; echo "FAIL: first run not done"; exit 1; }
grep -q '"cached": false'   <<<"$FIRST" || { echo "$FIRST"; echo "FAIL: first run was a cache hit"; exit 1; }
JOB1=$(echo "$FIRST" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1)
curl -fsS "$URL/v1/jobs/$JOB1/artifacts/summary.json" >"$WORK/first.json"
test -s "$WORK/first.json" || { echo "FAIL: empty artifact"; exit 1; }

# Second submission of the byte-identical request: cache hit, identical
# artifact bytes, no second simulation.
SECOND=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$REQ" "$URL/v1/jobs?wait=1")
grep -q '"status": "done"' <<<"$SECOND" || { echo "$SECOND"; echo "FAIL: second run not done"; exit 1; }
grep -q '"cached": true'   <<<"$SECOND" || { echo "$SECOND"; echo "FAIL: identical request re-simulated"; exit 1; }
JOB2=$(echo "$SECOND" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1)
curl -fsS "$URL/v1/jobs/$JOB2/artifacts/summary.json" >"$WORK/second.json"
cmp "$WORK/first.json" "$WORK/second.json" || { echo "FAIL: cached artifact differs"; exit 1; }

# The /metrics endpoint must report exactly one cache hit.
curl -fsS "$URL/metrics" | grep -q 'serve.cache.hits *1' || { curl -fsS "$URL/metrics"; echo "FAIL: metrics hit count"; exit 1; }

# Graceful drain: SIGTERM must exit cleanly (accepted work is done).
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

echo "PASS: serve smoke (simulate once, hit cache, byte-identical artifacts, clean drain)"
