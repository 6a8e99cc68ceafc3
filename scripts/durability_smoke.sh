#!/usr/bin/env bash
# Durability smoke test: run `s3pg-serve` with a WAL, apply updates, kill
# it with SIGKILL (no drain, no flush), restart on the same WAL directory,
# and verify every acknowledged update survived. Then bring up a read
# replica and verify it converges to the primary. Fully offline; drives
# the wire protocol with a tiny python client (line-delimited JSON).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p s3pg-server

SERVE=target/release/s3pg-serve
WORK_DIR=$(mktemp -d)
PRIMARY_LOG="$WORK_DIR/primary.log"
REPLICA_LOG="$WORK_DIR/replica.log"
trap 'kill "$PRIMARY_PID" "$REPLICA_PID" 2>/dev/null || true; rm -rf "$WORK_DIR"' EXIT
PRIMARY_PID=""
REPLICA_PID=""

cat > "$WORK_DIR/base.nt" <<'EOF'
<http://ex/alice> <http://ex/name> "Alice" .
<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/bob> <http://ex/name> "Bob" .
EOF

# wait_addr LOGFILE PID -> echoes HOST:PORT from the startup report
wait_addr() {
    local log=$1 pid=$2 addr=""
    for _ in $(seq 1 200); do
        addr=$(sed -n 's/^listening on \([0-9.:]*\).*/\1/p' "$log" | head -1)
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; echo "server died during startup" >&2; return 1; }
        sleep 0.1
    done
    cat "$log" >&2; echo "server never reported its address" >&2; return 1
}

# request ADDR JSON -> echoes the one-line JSON response
request() {
    python3 - "$1" "$2" <<'EOF'
import json, socket, sys
host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=10) as s:
    s.sendall((sys.argv[2] + "\n").encode())
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
print(buf.decode().strip())
EOF
}

echo "== start durable primary =="
"$SERVE" --data "$WORK_DIR/base.nt" --wal-dir "$WORK_DIR/wal" \
         --fsync-ms 0 --addr 127.0.0.1:0 >"$PRIMARY_LOG" 2>&1 &
PRIMARY_PID=$!
ADDR=$(wait_addr "$PRIMARY_LOG" "$PRIMARY_PID")
echo "primary on $ADDR"

echo "== apply 10 updates, all acknowledged =="
for i in $(seq 0 9); do
    RESP=$(request "$ADDR" "{\"op\":\"update\",\"additions\":\"<http://ex/n$i> <http://ex/name> \\\"N$i\\\" .\\n\",\"deletions\":\"\"}")
    echo "$RESP" | grep -q '"added_nodes"' || { echo "update $i rejected: $RESP"; exit 1; }
done
STATUS=$(request "$ADDR" '{"op":"wal"}')
echo "pre-crash wal status: $STATUS"
echo "$STATUS" | grep -q '"durable_seq":10' || { echo "acks outran durability"; exit 1; }
# One PG ⊨ S_PG check per update. The untyped deltas may widen the schema,
# which takes the whole-graph check, so only the sum of the two scopes is
# fixed.
CHECKS=$(request "$ADDR" '{"op":"metrics"}' | python3 -c '
import json, sys
text = json.load(sys.stdin)["exposition"]
print(int(sum(float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
              if line.startswith("s3pg_conformance_checks_total{"))))')
echo "update-path conformance checks: $CHECKS"
[ "$CHECKS" = 10 ] || { echo "expected 10 update-path conformance checks, saw $CHECKS"; exit 1; }

echo "== SIGKILL the primary (simulated crash) =="
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null || true
PRIMARY_PID=""

echo "== restart on the same WAL dir =="
"$SERVE" --data "$WORK_DIR/base.nt" --wal-dir "$WORK_DIR/wal" \
         --addr 127.0.0.1:0 >"$PRIMARY_LOG" 2>&1 &
PRIMARY_PID=$!
ADDR=$(wait_addr "$PRIMARY_LOG" "$PRIMARY_PID")
STATUS=$(request "$ADDR" '{"op":"wal"}')
echo "post-recovery wal status: $STATUS"
echo "$STATUS" | grep -q '"applied_seq":10' || { echo "recovery lost acknowledged updates"; exit 1; }
RESP=$(request "$ADDR" '{"op":"sparql","query":"SELECT ?s WHERE { ?s <http://ex/name> \"N9\" }"}')
echo "$RESP" | grep -q 'http://ex/n9' || { echo "recovered graph is missing update 9: $RESP"; exit 1; }

echo "== start a read replica and wait for convergence =="
"$SERVE" --data "$WORK_DIR/base.nt" --replica-of "$ADDR" \
         --addr 127.0.0.1:0 >"$REPLICA_LOG" 2>&1 &
REPLICA_PID=$!
REPLICA_ADDR=$(wait_addr "$REPLICA_LOG" "$REPLICA_PID")
for _ in $(seq 1 200); do
    RSTATUS=$(request "$REPLICA_ADDR" '{"op":"wal"}')
    echo "$RSTATUS" | grep -q '"applied_seq":10' && break
    sleep 0.1
done
echo "replica wal status: $RSTATUS"
echo "$RSTATUS" | grep -q '"role":"replica"' || { echo "replica reports wrong role"; exit 1; }
echo "$RSTATUS" | grep -q '"applied_seq":10' || { echo "replica never caught up"; exit 1; }

echo "== replica rejects writes with the typed read_only frame =="
RESP=$(request "$REPLICA_ADDR" '{"op":"update","additions":"<http://ex/x> <http://ex/name> \"X\" .\n","deletions":""}')
echo "$RESP" | grep -q '"read_only"' || { echo "replica accepted a write: $RESP"; exit 1; }

echo "== clean shutdown of both =="
request "$REPLICA_ADDR" '{"op":"shutdown"}' >/dev/null
request "$ADDR" '{"op":"shutdown"}' >/dev/null
for _ in $(seq 1 100); do
    kill -0 "$PRIMARY_PID" 2>/dev/null || kill -0 "$REPLICA_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$PRIMARY_PID" 2>/dev/null && { echo "primary did not exit"; exit 1; }
kill -0 "$REPLICA_PID" 2>/dev/null && { echo "replica did not exit"; exit 1; }
PRIMARY_PID=""
REPLICA_PID=""

echo "durability smoke OK"
