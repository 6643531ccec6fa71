#!/usr/bin/env python3
"""Check that simulated results are a function of the seed alone.

    python3 bench/e2e/determinism.py [--bin PATH] [--seed N]

Runs every workload at smoke scale twice with one seed and once with
another. Every simulated metric and counter, and the sim digest, must be
identical across the two same-seed runs and must differ under the other
seed, which shows the seed reaches the workload generator. Exits nonzero
otherwise.
"""
import argparse
import os
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (bench/e2e/run.py)


def sim_view(report):
    return ({k: m["value"] for k, m in report["metrics"].items() if m["sim"]},
            report["sim_digest"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bin", help="use this bench_e2e instead of building")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    binary = os.path.abspath(args.bin) if args.bin else run.build()
    out_dir = os.path.dirname(binary)

    def once(workload, seed):
        rep = run.run_workload(binary, workload, seed, True, 0, out_dir,
                               echo=False)
        if not rep["correct"]:
            raise SystemExit("%s: correctness check failed: %s"
                             % (workload, rep["first_failure"]))
        return sim_view(rep)

    bad = 0
    for w in run.WORKLOADS:
        (m1, d1), (m2, d2) = once(w, args.seed), once(w, args.seed)
        m3, d3 = once(w, args.seed + 1)
        diff = sorted(k for k in m1 if m1[k] != m2.get(k))
        if diff or d1 != d2:
            print("%s: seed %d is not reproducible: %s"
                  % (w, args.seed, ", ".join(diff) or "digest"))
            bad += 1
        elif d3 == d1:
            print("%s: seeds %d and %d gave identical results"
                  % (w, args.seed, args.seed + 1))
            bad += 1
        else:
            print("%s: reproducible (digest %s), seed-sensitive" % (w, d1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
