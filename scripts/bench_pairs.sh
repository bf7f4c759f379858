#!/usr/bin/env bash
# Interleaved parent/change pairs of one benchmark workload, or of each
# in turn (choosing-metrics §8): builds the benchmark from the committed
# files of <parent-ref> and from this checkout into separate target
# directories, runs them alternately — the side that goes first swaps
# every pair — and prints, per end-to-end metric, each side's median and
# quartiles, how many pairs the change won, and whether the medians
# differ by more than the parent's own interquartile distance; then the
# benchmark's own `--compare` verdict (bounds, fail_ratio and count
# metrics). `all` runs every workload BENCHMARK.json lists, one verdict
# block each, and ends with one line naming every (workload, metric)
# whose verdict is not ok; the exit status is non-zero if there is one.
#
#   scripts/bench_pairs.sh <parent-ref> <workload>|all [pairs=10] [seed=1]
#
# Everything it writes lives under .bench_build/pairs/ (ignored).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2
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

run() { # <workload> <side> <pair>
    local src="$root" bin="$change_bin"
    if [ "$2" = parent ]; then src="$work/parent_src" bin="$parent_bin"; fi
    (cd "$src" && BENCH_COMMIT="$2" "$bin" --workload "$1" --seed "$seed" \
        --seconds "$seconds" --trace 0 --detail "$work/runs/$1/$2_$3.json") >/dev/null 2>&1 ||
        echo "pair $3: the $2 run of $1 reported a failed check" >&2
}

values() { # <workload> <side> <metric> -> one value per pair, in pair order
    for i in $(seq 1 "$pairs"); do
        # The record is one line without a newline; printf supplies it.
        printf '%s\n' "$(sed -n "s/.*\"$3\":{\"value\":\([^,]*\),.*/\1/p" "$work/runs/$1/$2_$i.json")"
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

flagged=""
pairs_of() { # <workload>: runs its pairs and prints its verdict block
    local w="$1" i side metric better spec pm pq1 pq3 cm cq1 cq3 verdict
    mkdir -p "$work/runs/$w"
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then run "$w" parent "$i"; run "$w" change "$i"; else run "$w" change "$i"; run "$w" parent "$i"; fi
        echo "$w: pair $i/$pairs done" >&2
    done

    printf '\n%s, seed %s, %s pairs against %s (%s s runs)\n' "$w" "$seed" "$pairs" "$parent" "$seconds"
    printf '%-12s %-7s %12s %12s %12s\n' metric side median Q1 Q3
    for spec in ops_per_sec:higher peak_rss_mb:lower setup_s:lower; do
        metric="${spec%%:*}" better="${spec##*:}"
        read -r pm pq1 pq3 < <(values "$w" parent "$metric" | quartiles)
        read -r cm cq1 cq3 < <(values "$w" change "$metric" | quartiles)
        printf '%-12s %-7s %12s %12s %12s\n' "$metric" parent "$pm" "$pq1" "$pq3"
        printf '%-12s %-7s %12s %12s %12s\n' "$metric" change "$cm" "$cq1" "$cq3"
        paste <(values "$w" parent "$metric") <(values "$w" change "$metric") |
            awk -v better="$better" -v pm="$pm" -v cm="$cm" -v iqr="$(echo "$pq1 $pq3" | awk '{ print $2 - $1 }')" '
                { if ($1 != $2) { if ((better == "higher") == ($2 > $1)) wins++; else losses++ } else ties++ }
                END {
                    gain = (better == "higher") ? cm - pm : pm - cm
                    printf "%-12s change wins %d, loses %d, ties %d of %d; median %+.1f%%; gain %s the parent'"'"'s interquartile distance (%.6g)\n\n",
                        "", wins, losses, ties, NR, (cm - pm) / pm * 100, (gain > iqr) ? "exceeds" : "is within", iqr }'
    done

    # The benchmark's own verdict on the same runs: bounds, fail_ratio
    # and identical count metrics.
    for side in parent change; do
        { printf '{"host":{},"runs":['; for i in $(seq 1 "$pairs"); do
            [ "$i" -gt 1 ] && printf ','; cat "$work/runs/$w/${side}_$i.json"; done; printf ']}\n'; } >"$work/runs/$w/$side.json"
    done
    verdict="$("$change_bin" --compare "$work/runs/$w/parent.json" "$work/runs/$w/change.json" || true)"
    printf '%s\n' "$verdict"
    flagged="$flagged$(printf '%s\n' "$verdict" | awk '
        / (regressed|unresolved)( |$)/ { printf " (%s, %s)", $1, $2 }
        /^COUNT DIFFERS/ { sub(/:$/, "", $6); printf " (%s, %s)", $3, $6 }')"
}

if [ "$workload" = all ]; then
    # The workload names, in BENCHMARK.json's order.
    workloads="$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' "$root/BENCHMARK.json")"
else
    workloads="$workload"
fi
for w in $workloads; do
    pairs_of "$w"
done
if [ "$workload" = all ]; then
    printf '\noutside bound:%s\n' "${flagged:- none}"
fi
[ -z "$flagged" ]
