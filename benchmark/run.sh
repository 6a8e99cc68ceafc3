#!/usr/bin/env bash
# The benchmark's single entry point: builds `s3pg-serve` and the harness
# (offline, release, same profile as the root manifest) and runs the harness.
#
#   benchmark/run.sh --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--traced] [--aa]
#
# Run from the repository root (the driver does) or from anywhere inside a
# git checkout. Leaves the root Cargo.toml, Cargo.lock and crates/ untouched.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/.."

# The driver points CARGO_TARGET_DIR at a directory of its checkout;
# without it, build under the benchmark's own (git-ignored) target/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# One cargo invocation builds both binaries from this package's workspace:
# the harness, and s3pg-serve out of the path dependency it is measured
# against. Build chatter goes to stderr; stdout carries only results.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml \
    -p s3pg-benchmark -p s3pg-server --bins 1>&2

export S3PG_BENCH_ROOT="benchmark"
export S3PG_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/s3pg-benchmark" "$@"
