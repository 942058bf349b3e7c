#!/usr/bin/env bash
# Paired A/B measurement of the repository benchmark (BENCHMARK.json): the
# protocol every performance claim here is held to, as one command.
#
# Usage: scripts/ab.sh [--pairs N] [--seconds S] [--seed-base B] [--dir DIR]
#                      [--list WORKLOAD:METRIC] <parent-ref> <change-ref-or-dir> [workload…]
#
# Each side is materialised once in a clean copy (a git ref through `git
# archive`; a directory through its tracked + unignored files, so a dirty
# working tree can be measured before it is committed) and built once with
# `cargo build --release --offline`. Then N pairs (default 10) per workload
# (default: every workload BENCHMARK.json gates), each pair one run of the
# parent and one of the change with BENCHMARK.json's own command at its
# `run_seconds` (or --seconds), on the same seed, alternating which side
# goes first. Pair i runs on seed B + i; the default base, 7000, is kept
# for this script — develop on other seeds. Every run is appended to
# DIR/runs.jsonl (started afresh) and the table (scripts/ab_table.py; EXPERIMENTS.md's
# format) is printed at the end. --list prints every run of one metric.
#
# DIR defaults to a fresh temp dir, removed afterwards; a given --dir is
# kept (runs.jsonl, both builds), and sides already built there are reused.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)

pairs=10 seconds="" seed_base=7000 dir="" list=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --seed-base) seed_base=$2; shift 2 ;;
        --dir) dir=$2; shift 2 ;;
        --list) list+=(--list "$2"); shift 2 ;;
        -*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
        *) break ;;
    esac
done
if [ $# -lt 2 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent_src=$1 change_src=$2
shift 2

declared() { python3 -c "import json,sys; d=json.load(open('$repo/BENCHMARK.json')); $1"; }
[ -n "$seconds" ] || seconds=$(declared "print(d['run_seconds'])")
if [ $# -gt 0 ]; then workloads=("$@"); else
    mapfile -t workloads < <(declared "print('\n'.join(w['name'] for w in d['workloads']))")
fi
mapfile -t command < <(declared "print('\n'.join(d['command']))")

if [ -z "$dir" ]; then
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
fi
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)

# A side's sources, as the driver would check them out.
materialise() { # <ref-or-dir> <dest>
    mkdir -p "$2"
    if [ -d "$1" ]; then
        git -C "$1" ls-files -co --exclude-standard -z \
            | tar -C "$1" --null --ignore-failed-read -T - -cf - | tar -xf - -C "$2"
    else
        git -C "$repo" archive "$1" | tar -xf - -C "$2"
    fi
}
for side in parent change; do
    src=$parent_src
    [ "$side" = change ] && src=$change_src
    if [ ! -e "$dir/$side/.built" ]; then
        echo "ab: building $side ($src)" >&2
        rm -rf "${dir:?}/$side"
        materialise "$src" "$dir/$side"
        (cd "$dir/$side" && cargo build --release --offline --quiet \
            --manifest-path benchmark/Cargo.toml) >&2
        touch "$dir/$side/.built"
    fi
done

: >"$dir/runs.jsonl"
run_one() { # <side> <workload> <pair> <seed>
    local line status=0
    line=$(cd "$dir/$1" && "${command[@]}" --workload "$2" --seed "$4" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -1) || status=$?
    [ -n "$line" ] || line=null
    printf '{"side": "%s", "workload": "%s", "pair": %d, "seed": %d, "exit": %d, "result": %s}\n' \
        "$1" "$2" "$3" "$4" "$status" "$line" >>"$dir/runs.jsonl"
}
for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        seed=$((seed_base + pair))
        # Odd pairs run the parent first, even pairs the change.
        if [ $((pair % 2)) -eq 1 ]; then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            run_one "$side" "$workload" "$pair" "$seed"
        done
        echo "ab: $workload pair $pair/$pairs done" >&2
    done
done

python3 "$repo/scripts/ab_table.py" "$repo/BENCHMARK.json" "$dir/runs.jsonl" "${list[@]}"
