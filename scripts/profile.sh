#!/usr/bin/env bash
# One benchmark workload under gprofng's clock profiler: builds the
# benchmark from this checkout the way scripts/bench_pairs.sh does, runs
# <workload> for [seconds] at [seed] under `gprofng collect app -p on`,
# and prints the 30 functions with the most exclusive time — or, with
# --callers FN, FN's callers and callees, or with --lines FN, FN's
# source annotated line by line. The binary carries line tables
# (debug = "line-tables-only"), which is all --lines needs. The
# experiment stays under .bench_build/profile/ (ignored) for further
# `gprofng display text`.
#
#   scripts/profile.sh <workload> [seconds=40] [seed=1] [--callers FN | --lines FN]
#
# FN is a function as gprofng prints it, e.g. bgp::rib::Row::put_heard.
# The clock profiler needs no hardware counters. On a small VM it
# records about one sample per ten of wall time, so ask for 30 s or more.
set -euo pipefail

usage() {
    sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

workload="" seconds=40 seed=1 callers="" lines="" positional=0
while [ $# -gt 0 ]; do
    case "$1" in
    --callers)
        [ $# -ge 2 ] || usage
        callers="$2"
        shift 2
        ;;
    --lines)
        [ $# -ge 2 ] || usage
        lines="$2"
        shift 2
        ;;
    -*) usage ;;
    *)
        case "$positional" in
        0) workload="$1" ;;
        1) seconds="$1" ;;
        2) seed="$1" ;;
        *) usage ;;
        esac
        positional=$((positional + 1))
        shift
        ;;
    esac
done
[ -n "$workload" ] || usage
[ -z "$callers" ] || [ -z "$lines" ] || usage

if ! command -v gprofng >/dev/null 2>&1; then
    echo "profile.sh: gprofng is not installed (it ships with GNU binutils >= 2.39)" >&2
    exit 1
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/profile"
mkdir -p "$work"

CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$work/target" bash "$root/benchmark/run.sh" --manifest >/dev/null
bin="$work/target/release/masc-bgmp-benchmark"

exp="$work/$workload-seed$seed.er"
rm -rf "$exp"
(cd "$root" && gprofng collect app -p on -o "$exp" \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) >&2

if [ -n "$callers" ]; then
    gprofng display text -metrics e.%totalcpu:i.%totalcpu -csingle "$callers" "$exp"
elif [ -n "$lines" ]; then
    gprofng display text -metrics e.%totalcpu:i.%totalcpu -source "$lines" "$exp"
else
    gprofng display text -metrics e.%totalcpu:i.%totalcpu -sort e.totalcpu \
        -limit 30 -functions "$exp"
fi
echo "experiment: $exp" >&2
