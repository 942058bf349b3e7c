#!/usr/bin/env python3
"""Compare two result files of `flexio-benchmark run`.

    python3 benchmark/compare.py A.json B.json

A is the base (the parent commit, or the first set of runs), B the
candidate. For every workload x end-to-end metric this prints both
medians, the ratio B/A, and a verdict against the regression bound that
BENCHMARK.json fixes for the metric:

  ok          B's median is not worse than A's by more than the bound
  worse       it is, and the runs are steady enough to say so
  unresolved  the spread (of either file) is wider than the bound and the
              two files overlap: no verdict, measure longer

A file's repetitions are cut into five consecutive groups and each group
is reduced to its median, the way the benchmark driver reduces a run; the
spread is the interquartile range of those five values over their median
(Python's statistics.quantiles, as the driver computes it), and two files
overlap unless every group of one is on one side of every group of the
other. Single repetitions are not compared: some metrics (step_time_drift
on ctl_sync_shm) are bimodal per repetition and steady per group.

Exits 1 on any `worse` or when `failed_step_frac` rose; exits 2 on input
it refuses (a `--quick` result, mismatched step counts, a missing file).
"""

import json
import statistics
import sys
from pathlib import Path


def refuse(why):
    print(why, file=sys.stderr)
    sys.exit(2)


def load_bounds():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in declared["end_to_end"]}


def load_results(path):
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "flexio-benchmark/results/1":
        refuse(f"{path}: not a flexio-benchmark result file")
    if doc["provenance"]["quick"]:
        refuse(f"{path}: a --quick result; its numbers are not comparable")
    return doc


GROUPS = 5


def groups(metric):
    """Medians of consecutive fifths of the repetitions (fewer: one each)."""
    raw = metric["raw"]
    k = min(GROUPS, len(raw))
    cuts = [round(i * len(raw) / k) for i in range(k + 1)]
    return [statistics.median(raw[a:b]) for a, b in zip(cuts, cuts[1:])]


def spread(metric):
    values = groups(metric)
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def verdict(a, b, bound, better):
    """`a`, `b`: metric objects with their median and raw per-repetition values."""
    sign = 1.0 if better == "lower" else -1.0
    base = a["median"]
    worse_by = sign * (b["median"] - base) / abs(base) if base else 0.0
    if max(spread(a), spread(b)) > bound:
        # Too noisy for the bound: only runs that do not overlap decide.
        ga, gb = groups(a), groups(b)
        worst_a, best_a = (max(ga), min(ga)) if sign > 0 else (min(ga), max(ga))
        worst_b, best_b = (max(gb), min(gb)) if sign > 0 else (min(gb), max(gb))
        if sign * (best_b - worst_a) > 0 and worse_by > bound:
            return "worse", worse_by
        if sign * (worst_b - best_a) <= 0:
            return "ok", worse_by
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def main(argv):
    if len(argv) != 3:
        refuse(__doc__)
    bounds = load_bounds()
    a_doc, b_doc = load_results(argv[1]), load_results(argv[2])
    pa, pb = a_doc["provenance"], b_doc["provenance"]
    print(f"A: {argv[1]}  commit {pa['git_commit'][:12]}  seed {pa['seed']}  nproc {pa['nproc']}")
    print(f"B: {argv[2]}  commit {pb['git_commit'][:12]}  seed {pb['seed']}  nproc {pb['nproc']}")
    if pa["nproc"] != pb["nproc"]:
        print("note: the two files were measured with different core counts")
    failed = False
    header = f"{'workload':<20} {'metric':<26} {'A median':>14} {'B median':>14} {'B/A':>8}  bound  verdict"
    print(header)
    for name, wa in a_doc["workloads"].items():
        wb = b_doc["workloads"].get(name)
        if wb is None:
            print(f"{name:<20} missing from B")
            failed = True
            continue
        if wa["steps"] != wb["steps"]:
            refuse(f"{name}: step counts differ ({wa['steps']} vs {wb['steps']}); "
                   "step cost depends on stream age, so these do not compare")
        for metric, (bound, better) in bounds.items():
            a, b = wa["end_to_end"][metric], wb["end_to_end"][metric]
            status, worse_by = verdict(a, b, bound, better)
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            print(f"{name:<20} {metric:<26} {a['median']:>14.6g} {b['median']:>14.6g} "
                  f"{ratio:>7.3f}x  {bound:<5}  {status}"
                  + (f"  ({worse_by:+.1%} of A's median, spread A {spread(a):.1%} B {spread(b):.1%})"
                     if status != "ok" else ""))
            failed |= status == "worse"
        fa = wa["end_to_end"]["failed_step_frac"]["median"]
        fb = wb["end_to_end"]["failed_step_frac"]["median"]
        rose = fb > fa or wb["failed_steps"] > wa["failed_steps"]
        print(f"{name:<20} {'failed_step_frac':<26} {fa:>14.6g} {fb:>14.6g} {'':>8}  0      "
              + ("worse" if rose else "ok"))
        failed |= rose
    print("claim: none (compare reports regressions; a gain needs the paired protocol of the README)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
