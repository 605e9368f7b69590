"""Compare a parent's benchmark runs with a change's, against the bounds.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds full run records, one JSON object a line, as run.py appends
them to .bench_out/results.jsonl; smoke and traced runs are skipped.  For
every workload and end-to-end metric of BENCHMARK.json it prints each side's
median, quartiles and run count, and a verdict:

- unresolved: either side's quartile spread, as a share of its median, is
  wider than the metric's bound (improved instead if every change run
  beats every parent run);
- worse or improved: otherwise, the change's median is worse or better
  than the parent's by more than the bound;
- unchanged: otherwise.

Two more rows per workload: rmse, which is deterministic for a seed, must
not rise on any seed both sides ran; and the share of failed checks must not
rise.  Exit status 1 when any row is worse.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    runs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["smoke"] and not rec["trace"]:
                    runs.append(rec)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = quantiles(xs, n=4)
    return q1, q3


def spread(xs):
    q1, q3 = quartiles(xs)
    return (q3 - q1) / abs(median(xs))


def verdict(parent, change, better, bound):
    """Verdict for one metric; a positive ``worse_by`` favours the parent."""
    sign = 1 if better == "lower" else -1
    worse_by = sign * (median(change) - median(parent)) / abs(median(parent))
    if max(spread(parent), spread(change)) > bound:
        all_better = all(sign * (c - p) < 0 for c in change for p in parent)
        return "improved" if all_better else "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "improved", worse_by
    return "unchanged", worse_by


def rmse_verdict(parent_runs, change_runs):
    """rmse is a function of the seed, so compare it seed by seed."""
    before = {r["seed"]: r["detail"]["rmse"] for r in parent_runs}
    pairs = [(before[r["seed"]], r["detail"]["rmse"]) for r in change_runs
             if r["seed"] in before]
    if not pairs:
        return "no common seeds"
    if any(c > p for p, c in pairs):
        return "worse"
    return "improved" if any(c < p for p, c in pairs) else "unchanged"


def compare(parent_runs, change_runs, bench):
    """One row per (workload, metric) that both sides ran."""
    rows = []
    for wl in [w["name"] for w in bench["workloads"]]:
        before = [r for r in parent_runs if r["workload"] == wl]
        after = [r for r in change_runs if r["workload"] == wl]
        if not before or not after:
            continue
        for m in bench["end_to_end"]:
            p = [r["end_to_end"][m["name"]]["value"] for r in before]
            c = [r["end_to_end"][m["name"]]["value"] for r in after]
            result, worse_by = verdict(p, c, m["better"], m["bound"])
            rows.append({"workload": wl, "metric": m["name"],
                         "parent": (median(p), *quartiles(p), len(p)),
                         "change": (median(c), *quartiles(c), len(c)),
                         "worse_by": worse_by, "verdict": result})
        if "rmse" in before[0]["detail"]:
            rows.append({"workload": wl, "metric": "rmse",
                         "verdict": rmse_verdict(before, after)})
        p = median(r["failed_share"] for r in before)
        c = median(r["failed_share"] for r in after)
        rows.append({"workload": wl, "metric": "failed_share",
                     "parent": (p,), "change": (c,),
                     "verdict": "worse" if c > p else
                     "improved" if c < p else "unchanged"})
    return rows


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), bench)
    for row in rows:
        sides = ""
        if "worse_by" in row:
            sides = "%s -> %s  worse by %+.1f%%" % (
                "%.6g [%.6g, %.6g] n=%d" % row["parent"],
                "%.6g [%.6g, %.6g] n=%d" % row["change"],
                100 * row["worse_by"])
        elif "parent" in row:
            sides = "%.6g -> %.6g" % (row["parent"][0], row["change"][0])
        print("%-16s %-13s %-10s %s" % (row["workload"], row["metric"],
                                        row["verdict"], sides))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
