#!/usr/bin/env bash
# Interleaved parent/change pairs of one benchmark workload
# (choosing-metrics §8): builds the benchmark from the committed files
# of <parent-ref> and from this checkout into separate target
# directories, runs them alternately — the side that goes first swaps
# every pair — and prints, per end-to-end metric, each side's median and
# quartiles, how many pairs the change won, and whether the medians
# differ by more than the parent's own interquartile distance; then the
# benchmark's own `--compare` verdict (bounds and count metrics).
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10] [seed=1]
#
# Everything it writes lives under .bench_build/pairs/ (ignored).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent="$1" workload="$2" pairs="${3:-10}" seed="${4:-1}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/pairs"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")"

# The parent as the driver sees it: committed files only.
rm -rf "$work/parent_src" "$work/runs"
mkdir -p "$work/parent_src" "$work/runs"
git -C "$root" archive "$parent" | tar -x -C "$work/parent_src"

build() { # <source root> <target dir> -> path of the built binary
    CARGO_TARGET_DIR="$2" bash "$1/benchmark/run.sh" --manifest >/dev/null
    echo "$2/release/masc-bgmp-benchmark"
}
parent_bin="$(build "$work/parent_src" "$work/parent_target")"
change_bin="$(build "$root" "$work/change_target")"

run() { # <side> <pair>
    local src="$root" bin="$change_bin"
    if [ "$1" = parent ]; then src="$work/parent_src" bin="$parent_bin"; fi
    (cd "$src" && BENCH_COMMIT="$1" "$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --detail "$work/runs/$1_$2.json") >/dev/null 2>&1 ||
        echo "pair $2: the $1 run reported a failed check" >&2
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
    echo "pair $i/$pairs done" >&2
done

values() { # <side> <metric> -> one value per pair, in pair order
    for i in $(seq 1 "$pairs"); do
        # The record is one line without a newline; printf supplies it.
        printf '%s\n' "$(sed -n "s/.*\"$2\":{\"value\":\([^,]*\),.*/\1/p" "$work/runs/$1_$i.json")"
    done
}
# median, Q1 and Q3 by the rule of Python's statistics.quantiles(n=4),
# which is also what `--compare` uses for its spread.
quartiles() {
    sort -g | awk '{ v[NR] = $1 } END {
        for (k = 1; k <= 3; k++) {
            p = (NR + 1) * k / 4; lo = int(p); if (lo < 1) lo = 1; if (lo >= NR) lo = NR - 1
            if (NR == 1) q[k] = v[1]; else q[k] = v[lo] + (p - lo) * (v[lo + 1] - v[lo])
        }
        printf "%.6g %.6g %.6g\n", q[2], q[1], q[3] }'
}

printf '\n%s, seed %s, %s pairs against %s (%s s runs)\n' "$workload" "$seed" "$pairs" "$parent" "$seconds"
printf '%-12s %-7s %12s %12s %12s\n' metric side median Q1 Q3
for spec in ops_per_sec:higher peak_rss_mb:lower setup_s:lower; do
    metric="${spec%%:*}" better="${spec##*:}"
    read -r pm pq1 pq3 < <(values parent "$metric" | quartiles)
    read -r cm cq1 cq3 < <(values change "$metric" | quartiles)
    printf '%-12s %-7s %12s %12s %12s\n' "$metric" parent "$pm" "$pq1" "$pq3"
    printf '%-12s %-7s %12s %12s %12s\n' "$metric" change "$cm" "$cq1" "$cq3"
    paste <(values parent "$metric") <(values change "$metric") |
        awk -v better="$better" -v pm="$pm" -v cm="$cm" -v iqr="$(echo "$pq1 $pq3" | awk '{ print $2 - $1 }')" '
            { if ($1 != $2) { if ((better == "higher") == ($2 > $1)) wins++; else losses++ } else ties++ }
            END {
                gain = (better == "higher") ? cm - pm : pm - cm
                printf "%-12s change wins %d, loses %d, ties %d of %d; median %+.1f%%; gain %s the parent'"'"'s interquartile distance (%.6g)\n\n",
                    "", wins, losses, ties, NR, (cm - pm) / pm * 100, (gain > iqr) ? "exceeds" : "is within", iqr }'
done

# The benchmark's own verdict on the same runs: bounds, fail_ratio and
# identical count metrics.
for side in parent change; do
    { printf '{"host":{},"runs":['; for i in $(seq 1 "$pairs"); do
        [ "$i" -gt 1 ] && printf ','; cat "$work/runs/${side}_$i.json"; done; printf ']}\n'; } >"$work/$side.json"
done
"$change_bin" --compare "$work/parent.json" "$work/change.json"
