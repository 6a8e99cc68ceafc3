#!/usr/bin/env bash
# Tier-1 verification: everything must pass before a change lands.
# Fully offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

# The benchmark package has its own workspace and path-depends on
# crates/*, so the root `cargo test` never compiles it: a change to a
# crate API the harness calls (`transform_with`, `PipelineMetrics::phase`,
# `conformance::check`, the WAL checkpoint writer, ...) fails here.
echo "== cargo test -q --manifest-path benchmark/Cargo.toml =="
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "tier-1 OK"
