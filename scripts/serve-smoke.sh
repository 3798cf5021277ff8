#!/bin/sh
# serve-smoke: end-to-end drill of the live control plane (docs/SERVE.md,
# docs/OPERATIONS.md). Builds ispnsim (or uses the binary $ISPNSIM names),
# starts `serve` on an ephemeral port, creates two sessions from the scenario
# library, checks /healthz and the session list, injects an outage over HTTP,
# runs to the horizon, asserts the trace stream and report came back, runs a
# paced session through pause and resume and streams its trace as SSE from
# an offset, and verifies clean SIGINT shutdown. Run via `make serve-smoke` (part of
# `make ci`); scripts/unreached.sh runs it with a coverage build.
set -eu
cd "$(dirname "$0")/.."

GO=${GO:-go}
tmp=$(mktemp -d)
pid=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

sim=${ISPNSIM:-$tmp/ispnsim}
[ -n "${ISPNSIM:-}" ] || $GO build -o "$sim" ./cmd/ispnsim
"$sim" -addr localhost:0 serve scenarios >"$tmp/serve.log" 2>&1 &
pid=$!

# The readiness line prints only after the socket is bound.
i=0
until grep -q 'listening on' "$tmp/serve.log"; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: server did not come up:" >&2
        cat "$tmp/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
base=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$tmp/serve.log")

# Two paused failover sessions: the list orders them, the health check
# counts them.
for id in s1 s2; do
    curl -sf -X POST "$base/sessions" \
        -d '{"scenario": "failover", "paused": true}' >"$tmp/create.json"
    grep -q "\"id\": \"$id\"" "$tmp/create.json"
done
curl -sf "$base/sessions" | tr -d ' \n' | grep -q '"id":"s1".*"id":"s2"'
curl -sf "$base/healthz" | grep -q '"sessions": 2'

# Script an extra outage into s1 and run it to the end.
curl -sf -X POST "$base/sessions/s1/events" --data-binary @- <<'EOF' >"$tmp/inject.json"
at 55s { fail s4 -> s5 }
at 65s { restore s4 -> s5 }
EOF
grep -q '"scheduled"' "$tmp/inject.json"

curl -sf -X POST "$base/sessions/s1" -d '{"action": "finish"}' |
    grep -q '"status": "done"'

# Every completed trace interval streams out, then the stream ends.
rows=$(curl -sfN "$base/sessions/s1/trace" | wc -l)
if [ "$rows" -lt 12 ]; then
    echo "serve-smoke: trace stream yielded $rows rows, want >= 12" >&2
    exit 1
fi

curl -sf "$base/sessions/s1/report" >"$tmp/report.txt"
grep -q '^scenario failover:' "$tmp/report.txt"

# A paced session with a trace interval of its own: pause it, resume it,
# then stream its trace from interval 2 as server-sent events. The stream
# ends when the session finishes; NDJSON then gives the total.
curl -sf -X POST "$base/sessions" \
    -d '{"scenario": "failover", "pace": 200, "trace": 20}' >"$tmp/paced.json"
grep -q '"id": "s3"' "$tmp/paced.json"
curl -sf -X POST "$base/sessions/s3" -d '{"action": "pause"}' |
    grep -q '"status": "paused"'
curl -sf -X POST "$base/sessions/s3" -d '{"action": "resume"}' |
    grep -q '"status": "running"'
curl -sfN -H 'Accept: text/event-stream' "$base/sessions/s3/trace?from=2" >"$tmp/sse.txt"
total=$(curl -sfN "$base/sessions/s3/trace" | wc -l)
events=$(grep -c '^data: {' "$tmp/sse.txt" || true)
if [ "$total" -lt 3 ] || [ "$events" -ne $((total - 2)) ] ||
    [ "$(grep -cv '^data: {' "$tmp/sse.txt")" -ne "$events" ]; then
    echo "serve-smoke: SSE trace from 2 gave $events events of $total rows, want $((total - 2)), each a data: line and a blank line:" >&2
    cat "$tmp/sse.txt" >&2
    exit 1
fi

# Clean shutdown on SIGINT.
kill -INT "$pid"
wait "$pid"
pid=
grep -q 'shutting down' "$tmp/serve.log"

echo "serve-smoke OK ($rows trace rows; $events of $total as SSE from 2)"
