#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by row.

    python3 bench/e2e/compare.py A1.json [A2.json ...] -- B1.json [B2.json ...]
    python3 bench/e2e/compare.py --summary SET1... [-- SET2... ...]

Each file is a results.json written by run.py (one or more workloads).
Side A is the parent, side B the change. For every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles and a verdict:

  identical   both sides hold the same values (simulated metrics of runs
              with the same seeds, when the change left the model alone)
  worse       B's median is worse than A's by more than the metric's bound
  unresolved  the run-to-run spread (quartile distance over the median, on
              either side) is wider than the bound, and not every B run
              beats every A run, so no change can be ruled in or out
  better      every B run beats every A run by more than A's own spread
  same        otherwise

Exits 1 when any metric is worse, else 0.

--summary prints, as JSON, each set's median and quartiles of every
metric per workload (how baseline.json was made).
"""
import datetime
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load(paths):
    """{workload: {metric: [values...]}} over all files of one side."""
    out = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for w, rep in doc["workloads"].items():
            for name, m in rep["metrics"].items():
                out.setdefault(w, {}).setdefault(name, []).append(m["value"])
    return out


def summary(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def spread(vals):
    med, q1, q3 = summary(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    if sorted(a) == sorted(b):
        return "identical", 0.0
    sign = 1 if better == "lower" else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    b_wins_all = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not b_wins_all:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if b_wins_all and -worse_by > spread(a):
        return "better", worse_by
    return "same", worse_by


def split_sets(argv):
    sets, cur = [], []
    for a in argv + ["--"]:
        if a == "--":
            sets.append(cur)
            cur = []
        else:
            cur.append(a)
    return [s for s in sets if s]


def summarize(sets):
    """JSON document: per set, [q1, median, q3] of every metric."""
    with open(sets[0][0]) as f:
        first = json.load(f)
    units = {}
    doc = {k: first[k] for k in ("hw_threads", "seed", "command", "commit")}
    doc["format"] = "sets[i].workloads[w][metric] = [q1, median, q3]"
    doc["sets"] = []
    for paths in sets:
        newest = max(os.path.getmtime(p) for p in paths)
        stats = {}
        for w, ms in load(paths).items():
            stats[w] = {}
            for name, vals in sorted(ms.items()):
                med, q1, q3 = summary(vals)
                stats[w][name] = [q1, med, q3]
        for path in paths:
            with open(path) as f:
                for rep in json.load(f)["workloads"].values():
                    for name, m in rep["metrics"].items():
                        units[name] = m["unit"]
        doc["sets"].append({
            "invocations": len(paths),
            "taken_utc": datetime.datetime.fromtimestamp(
                newest, datetime.timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
            "workloads": stats})
    doc["units"] = dict(sorted(units.items()))
    return doc


def main(argv):
    if argv[:1] == ["--summary"]:
        print(json.dumps(summarize(split_sets(argv[1:])), indent=1))
        return 0
    if "--" not in argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    side_a, side_b = load(argv[:cut]), load(argv[cut + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    worse = 0
    print("%-20s %-13s %-30s %-30s %8s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "worse by", "verdict"))
    for w in sorted(set(side_a) & set(side_b)):
        for m in metrics:
            a, b = side_a[w].get(m["name"]), side_b[w].get(m["name"])
            if not a or not b:
                continue
            v, worse_by = verdict(a, b, m["better"], m["bound"])
            worse += v == "worse"
            fmt = "%.4g [%.4g, %.4g]"
            print("%-20s %-13s %-30s %-30s %+7.2f%%  %s" % (
                w, m["name"], fmt % summary(a), fmt % summary(b),
                100 * worse_by, v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
