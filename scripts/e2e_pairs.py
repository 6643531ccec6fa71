#!/usr/bin/env python3
"""Run alternating parent/change pairs of one bench/e2e workload, then judge.

    python3 scripts/e2e_pairs.py PARENT_BIN CHANGE_BIN --workload W
                                 [--pairs N] [--seed S] [--out-dir DIR]

Every run is `bench/e2e/run.py --workload W --seed S --bin BIN`. Pair i runs
the parent first when i is even and the change first when it is odd, so a
drift in host speed during the session falls on both sides alike. run.py
writes results.json beside its binary; each run's copy is kept apart as
DIR/parent/NN.json or DIR/change/NN.json (DIR defaults to build-pairs/W-sS
under the repository root). Prints each pair's host_kops and how many
pairs the change won (ties count for neither), then runs
bench/e2e/compare.py over the two sets and exits with its code.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "bench", "e2e")


def run_once(binary, workload, seed, dest):
    """One run.py invocation; copies its results.json to `dest` and
    returns the run's host_kops."""
    cmd = [sys.executable, os.path.join(E2E, "run.py"), "--workload",
           workload, "--seed", str(seed), "--bin", binary]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd),
                                                  proc.returncode))
    shutil.copyfile(os.path.join(os.path.dirname(binary), "results.json"),
                    dest)
    with open(dest) as f:
        doc = json.load(f)
    return doc["workloads"][workload]["metrics"]["host_kops"]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_bin", help="the parent's bench_e2e")
    ap.add_argument("change_bin", help="the change's bench_e2e")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out-dir", help="where each run's results.json goes")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    out = args.out_dir or os.path.join(
        ROOT, "build-pairs", "%s-s%d" % (args.workload, args.seed))
    bins = {"parent": os.path.abspath(args.parent_bin),
            "change": os.path.abspath(args.change_bin)}
    files = {"parent": [], "change": []}
    for side in files:
        os.makedirs(os.path.join(out, side), exist_ok=True)

    wins = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        kops = {}
        for side in order:
            dest = os.path.join(out, side, "%02d.json" % i)
            try:
                kops[side] = run_once(bins[side], args.workload, args.seed,
                                      dest)
            except (RuntimeError, OSError, KeyError, ValueError) as e:
                print("e2e_pairs.py: %s" % e, file=sys.stderr)
                return 2
            files[side].append(dest)
        won = kops["change"] > kops["parent"]
        wins += won
        print("pair %2d (%s first): host_kops parent %.1f change %.1f "
              "(x%.3f)%s" % (i, order[0], kops["parent"], kops["change"],
                             kops["change"] / kops["parent"],
                             "  change won" if won else ""), flush=True)
    print("%s seed %d: the change won %d of %d pairs"
          % (args.workload, args.seed, wins, args.pairs), flush=True)
    cmp = subprocess.run([sys.executable, os.path.join(E2E, "compare.py")] +
                         files["parent"] + ["--"] + files["change"])
    return cmp.returncode


if __name__ == "__main__":
    sys.exit(main())
