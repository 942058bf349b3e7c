#!/usr/bin/env python3
"""Compare one fresh BENCH_*.json against its committed baseline.

Usage: git show HEAD:BENCH_x.json | bench_diff.py BENCH_x.json THRESHOLD_PCT

Rows are matched by their identity fields (sweep coordinates: stream
counts, transports, backends, ...); measured fields (rates, timings,
counters) are excluded from the match key. For each matched row the
throughput metric (steps_per_s / ops_per_s / msgs_per_s / gbps — higher
is better) is compared; a drop beyond the threshold is a regression.
Rows present on only one side are reported but never fail the run, so
sweeps may grow or shrink freely. A row run on more threads than the
fresh file's `host_cores` is oversubscribed: its rate measures the
host's scheduler more than the code, so it is printed, not gated. Exits
1 on any regression."""

import json
import sys

# Fields that carry measurements rather than sweep coordinates.
MEASURED = {
    "elapsed_s",
    "steps_per_s",
    "steps_per_s_min",
    "steps_per_s_max",
    "steps_per_s_per_thread",
    "runs",
    "ops_per_s",
    "msgs_per_s",
    "gbps",
    "converge_ms",
    "steps",
    "steps_total",
    "msgs",
    "ops",
}
# Throughput metrics, in preference order; higher is better.
RATES = ("gbps", "steps_per_s", "ops_per_s", "msgs_per_s")


def key_of(row):
    return tuple(sorted((k, v) for k, v in row.items() if k not in MEASURED))


def rate_of(row):
    for r in RATES:
        if r in row:
            return r, float(row[r])
    return None, None


def main():
    fresh_path, threshold = sys.argv[1], float(sys.argv[2])
    raw = sys.stdin.read()
    with open(fresh_path) as f:
        fresh = json.load(f)

    name = fresh.get("bench", fresh_path)
    if not raw.strip():
        # A bench present in this run but absent from the baseline is a
        # new bench, not a regression: first runs must pass so the file
        # can be committed and become the baseline.
        print(f"  {name}: no baseline (new bench) — {len(fresh.get('results', []))} rows, passing")
        sys.exit(0)
    baseline = json.loads(raw)
    base_rows = {key_of(r): r for r in baseline.get("results", [])}
    fresh_rows = {key_of(r): r for r in fresh.get("results", [])}

    host_cores = fresh.get("host_cores")
    regressions = 0
    compared = 0
    for key, new in fresh_rows.items():
        old = base_rows.get(key)
        if old is None:
            coords = ", ".join(f"{k}={v}" for k, v in key)
            print(f"  {name}: new row ({coords}) — no baseline, skipping")
            continue
        metric, new_v = rate_of(new)
        _, old_v = rate_of(old)
        if metric is None or old_v is None or old_v <= 0:
            continue
        delta_pct = 100.0 * (new_v - old_v) / old_v
        coords = ", ".join(f"{k}={v}" for k, v in key)
        if host_cores and new.get("threads", 0) > host_cores:
            print(
                f"  {name}: oversubscribed (not gated) ({coords}): {metric} "
                f"{old_v:.3f} -> {new_v:.3f} ({delta_pct:+.1f}%)"
            )
            continue
        compared += 1
        if delta_pct < -threshold:
            print(
                f"  {name}: REGRESSION ({coords}): {metric} "
                f"{old_v:.3f} -> {new_v:.3f} ({delta_pct:+.1f}%)"
            )
            regressions += 1
    for key in base_rows.keys() - fresh_rows.keys():
        coords = ", ".join(f"{k}={v}" for k, v in key)
        print(f"  {name}: baseline row ({coords}) missing from fresh results")

    print(f"  {name}: {compared} rows compared, {regressions} regressions")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
