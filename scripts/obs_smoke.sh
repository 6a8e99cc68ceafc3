#!/usr/bin/env bash
# Smoke-test the observability layer end to end: run `s3pg-convert` with
# `--metrics --trace-out`, then validate the artifacts with `trace_check`
# (every trace line parses, begins/ends balance with proper nesting, the
# metrics.json summary is complete). Fully offline.
#
# Artifacts are left in $OBS_OUT_DIR when set (CI uploads them); otherwise
# a temp dir is used and removed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p s3pg -p s3pg-bench

CONVERT=target/release/s3pg-convert
LOADGEN=target/release/loadgen
TRACE_CHECK=target/release/trace_check

if [ -n "${OBS_OUT_DIR:-}" ]; then
    OUT="$OBS_OUT_DIR"
    mkdir -p "$OUT"
else
    OUT=$(mktemp -d)
    trap 'rm -rf "$OUT"' EXIT
fi

echo "== write demo dataset =="
"$LOADGEN" --write-demo "$OUT"

echo "== convert with --metrics --trace-out =="
"$CONVERT" --data "$OUT/data.ttl" --shapes "$OUT/shapes.ttl" \
           --out-dir "$OUT/convert" --metrics \
           --trace-out "$OUT/convert/trace.jsonl"

echo "== validate trace JSONL and metrics.json =="
"$TRACE_CHECK" --trace "$OUT/convert/trace.jsonl" \
               --metrics "$OUT/convert/metrics.json"

echo "== phase 2 must have recorded its classification span =="
grep -q '"name":"phase2_classify"' "$OUT/convert/trace.jsonl" \
    || { echo "no phase2_classify span in trace"; exit 1; }

echo "obs smoke OK"
