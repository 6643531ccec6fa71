#!/usr/bin/env python3
"""End-to-end benchmark runner: build bench_e2e, run workloads, report.

    python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds 10]
                             [--smoke] [--trace [0|1]] [--bin PATH]

Builds bench/e2e into build-e2e/ (unless --bin names a built binary), then
runs each workload (or only --workload) in its own process, one after
another. --workload and --seconds are the calling convention of
BENCHMARK.json, whose command runs one workload per invocation. The timed
phase is fixed at 10 reference-host seconds, so --seconds accepts only 10.
Every metric is printed as "workload metric value unit";
build-e2e/results.json records them with hw_threads, the seed and the git
commit. The last stdout line is one JSON object {"correct", "attempted",
"failed", "metrics"} holding the end-to-end metrics of BENCHMARK.json
(untraced) or its per-layer metrics (--trace). Exits nonzero if a build, a
run or a correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
WORKLOADS = ["kv_read_hot", "kv_update_spill", "lsm_mixed",
             "hashkv_tenants_open"]
RUN_TIMEOUT_S = 600
TIMED_SECONDS = 10  # bench_e2e.cpp's kSeconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build bench_e2e; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 8))
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "bench_e2e")


def run_workload(binary, workload, seed, smoke, trace, out_dir, echo=True):
    """Run one workload in its own process; returns its parsed report.
    With `echo`, its "workload metric value unit" lines go to stdout."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--out-dir", out_dir]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1])


def git_commit():
    # Only look at this checkout's own repository, never a parent's.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def contract_metrics(reports, trace):
    """BENCHMARK.json's metrics of the mode, from each workload's report;
    keys carry a "workload/" prefix when more than one workload ran."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for workload, rep in reports.items():
        for m in wanted:
            got = rep["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                raise RuntimeError("%s: metric %s missing or not in %s"
                                   % (workload, m["name"], m["unit"]))
            key = m["name"] if len(reports) == 1 else workload + "/" + m["name"]
            out[key] = {"value": got["value"], "unit": got["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run only this workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=TIMED_SECONDS,
                    help="timed-phase length on the reference host; only %d"
                    % TIMED_SECONDS)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at 1/20 scale")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="traced run: per-layer metrics")
    ap.add_argument("--bin", help="use this bench_e2e instead of building")
    args = ap.parse_args()
    if args.seconds != TIMED_SECONDS:
        ap.error("--seconds: the timed phase is fixed at %d s" % TIMED_SECONDS)

    try:
        binary = os.path.abspath(args.bin) if args.bin else build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("run.py: build failed: %s" % e)
        return 2
    out_dir = os.path.dirname(binary)
    workloads = [args.workload] if args.workload else WORKLOADS
    reports = {}
    try:
        for w in workloads:
            reports[w] = run_workload(binary, w, args.seed, args.smoke,
                                      args.trace, out_dir)
        metrics = contract_metrics(reports, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        return 1

    for w, rep in reports.items():
        if not rep["correct"]:
            log("run.py: %s failed %d of %d ops; first: %s"
                % (w, rep["failed"], rep["attempted"], rep["first_failure"]))
    results = {
        "hw_threads": os.cpu_count(),
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "commit": git_commit(),
        "command": ["python3", "bench/e2e/run.py"] + sys.argv[1:],
        "workloads": reports,
    }
    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    correct = all(r["correct"] for r in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
