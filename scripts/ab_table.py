#!/usr/bin/env python3
"""Print the paired table of a scripts/ab.sh run.

    python3 scripts/ab_table.py BENCHMARK.json runs.jsonl [--list WORKLOAD:METRIC]...

One row per workload x end-to-end metric, in EXPERIMENTS.md's format: each
side's median and quartiles over its runs, change/parent with the parent
median as its base, the pairs in which the change read better (ties count
for neither side), and a verdict against the bound BENCHMARK.json fixes:

  exact       every run of both sides reads the same value (a count)
  better      the change wins at least nine tenths of the pairs (of at least
              ten) and the medians differ by more than the parent's quartile
              distance
  worse       the mirror image: resolved against the change, inside the bound
  WORSE       the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's own quartile distance exceeds the bound, and the
              runs of the two sides overlap: no verdict either way
  level       none of the above: inside the bound, not resolved apart
              (`too few pairs` when there are fewer than ten to resolve with)

Exits 1 when a run failed, did not verify or lost steps (such runs are left
out of the table), else 3 on any WORSE.
"""

import json
import statistics
import sys
from collections import defaultdict


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    if x == int(x) and abs(x) >= 1000:
        return f"{int(x):,}".replace(",", " ")
    return f"{x:.4g}" if abs(x) < 1000 else f"{x:,.1f}".replace(",", " ")


def main():
    declared = json.load(open(sys.argv[1]))
    listed = [a for flag, a in zip(sys.argv[3:], sys.argv[4:]) if flag == "--list"]
    runs = defaultdict(dict)  # (workload, pair) -> side -> run
    failed = worse = 0
    for line in open(sys.argv[2]):
        run = json.loads(line)
        result = run["result"]
        if run["exit"] != 0 or not result or not result["correct"] or result["failed"]:
            print(f"FAILED RUN: {line.strip()[:200]}")
            failed += 1
            continue
        runs[(run["workload"], run["pair"])][run["side"]] = run
    workloads = list(dict.fromkeys(w for w, _ in runs))
    every_run = []

    print("| workload | metric | parent med [q1, q3] | change med [q1, q3] "
          "| change/parent | pairs won | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        pairs = [sides for (w, _), sides in sorted(runs.items()) if w == workload and len(sides) == 2]
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            value = lambda side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
            parent, change = value("parent"), value("change")
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            worse_by = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
            apart = len(pairs) >= 10 and abs(cmed - pmed) > pq3 - pq1
            disjoint = max(sign * c for c in change) < min(sign * p for p in parent) or min(
                sign * c for c in change) > max(sign * p for p in parent)
            if won == lost == 0:
                verdict = "exact"
            elif pmed and (pq3 - pq1) / abs(pmed) > bound and not disjoint:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "WORSE"
                worse += 1
            elif 10 * won >= 9 * len(pairs) and apart:
                verdict = "better"
            elif 10 * lost >= 9 * len(pairs) and apart:
                verdict = "worse"
            else:
                verdict = "level" if len(pairs) >= 10 else "too few pairs"
            if verdict == "exact":
                print(f"| `{workload}` | `{name}` | {fmt(pmed)} | {fmt(cmed)} "
                      f"| 1.000 (every run) | ties | exact |")
                continue
            ratio = f"{cmed / pmed:.3f} (base {fmt(pmed)} {metric['unit']})" if pmed else "-"
            print(f"| `{workload}` | `{name}` | {fmt(pmed)} [{fmt(pq1)}, {fmt(pq3)}] "
                  f"| {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] | {ratio} "
                  f"| {won}/{len(pairs)} | {verdict} |")
            if f"{workload}:{name}" in listed:
                seeds = ", ".join(str(p["parent"]["seed"]) for p in pairs)
                every_run += [
                    f"\n| `{workload}` `{name}` | runs (seeds {seeds}) |\n|---|---|",
                    "| parent | " + ", ".join(fmt(v) for v in parent) + " |",
                    "| change | " + ", ".join(fmt(v) for v in change) + " |",
                ]
    print("\n".join(every_run))
    total = sum(len(s) for s in runs.values())
    print(f"\n{total} runs verified (0 failed steps, \"correct\": true), {failed} failed; "
          f"{worse} metrics WORSE.")
    sys.exit(1 if failed else 3 if worse else 0)


if __name__ == "__main__":
    main()
