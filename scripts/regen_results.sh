#!/usr/bin/env bash
# Stale-results guard: regenerate every *small* committed results/
# artifact from source and fail on any byte of drift.
#
# The committed CSVs/JSONs under results/ are part of the repo's
# claim — "these numbers fall out of this code" — and nothing ties
# them to the code once a refactor lands unless something re-derives
# them. This script re-runs every sweep that finishes in seconds (the
# eight ablations, the smoke faults grid, and the full fig4 sweep; the
# long-horizon fig2 sweep is covered at reduced size by Tier-1
# `crates/bench/tests/fig2_golden.rs`) and diffs the output against
# the committed files.
#
# Usage: scripts/regen_results.sh [--update]
#   --update  overwrite the committed files instead of failing on
#             drift (for deliberately refreshing after a reviewed
#             semantic change).

set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE=0
[[ "${1:-}" == "--update" ]] && UPDATE=1

ABLATIONS=(
  ablation_aggregation
  ablation_collisions
  ablation_encap
  ablation_kampai
  ablation_partition
  ablation_policy
  ablation_startup
  ablation_state_agg
)

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

cargo build --release -p masc-bgmp-bench

for bin in "${ABLATIONS[@]}"; do
  MASC_BGMP_RESULTS="$OUT" "./target/release/$bin" >/dev/null
done

# The faults sweep's committed artifact is the smoke grid (the full
# grid is minutes, not seconds), and fig4 is fast enough to re-derive
# at full size; both carry the BGMP-vs-BIER-vs-map-and-encap columns,
# byte-identical at any --threads.
MASC_BGMP_RESULTS="$OUT" ./target/release/ablation_faults --smoke --threads 4 >/dev/null
MASC_BGMP_RESULTS="$OUT" ./target/release/fig4_trees --threads 4 >/dev/null

fail=0
for bin in "${ABLATIONS[@]}" ablation_faults fig4_tree_quality; do
  for ext in csv json; do
    want="results/$bin.$ext"
    got="$OUT/$bin.$ext"
    if [[ ! -f "$got" ]]; then
      echo "MISSING: $bin never emitted $got" >&2
      fail=1
      continue
    fi
    if [[ $UPDATE == 1 ]]; then
      cp "$got" "$want"
    elif ! diff -u "$want" "$got"; then
      echo "STALE: $want no longer matches what the code produces" >&2
      fail=1
    fi
  done
done

if [[ $fail == 1 ]]; then
  echo >&2
  echo "committed results drifted from the code. If the change is" >&2
  echo "intentional, refresh with: scripts/regen_results.sh --update" >&2
  exit 1
fi
echo "all committed small results are fresh ($((${#ABLATIONS[@]} + 2)) sweeps, csv+json)"
