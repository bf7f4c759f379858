#!/usr/bin/env bash
# The repository benchmark: builds benchmark/ (offline, its own
# workspace) and runs it. See benchmark/README.md; `run.sh --help`
# lists the modes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Build output stays inside the checkout. A relative CARGO_TARGET_DIR
# is taken from where the caller stands, as cargo takes it.
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT

exec "$target/release/masc-bgmp-benchmark" "$@"
