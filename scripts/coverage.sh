#!/usr/bin/env bash
# Line coverage of src/ under everything the repository runs.
#
# Configures build-coverage/ with gcc's --coverage instrumentation (passed
# on the CMake command line; there is no CMake option for it), builds,
# runs ctest there (tier-1, the 14 paper binaries included), then the
# four extension benches at --smoke and the six examples, all from the
# build directory. It then runs gcov over every object and prints, for
# the code under src/:
#
#   * line coverage per src/ directory, and in total;
#   * every src/ function that never ran (name, file and line): code that
#     nothing in the repository runs.
#
# A header's lines count once however many objects include it: a line
# ran if it ran in any of them. Run it before and after a change to see
# which code the change made dead or brought into the tests. It reports;
# it is not a gate, and exits nonzero only if the build, a test, a bench
# or an example fails.
#
# Usage: scripts/coverage.sh [--no-run] [build-dir]
#   --no-run  report the counters already in build-dir (after running
#             more binaries from it, say) without rebuilding or re-running
set -euo pipefail

cd "$(dirname "$0")/.."

RUN=1
BUILD_DIR=build-coverage
for arg in "$@"; do
  case "$arg" in
    --no-run) RUN=0 ;;
    -h|--help) sed -n '2,23p' "$0"; exit 0 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

if [ "$RUN" = 1 ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
    >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  # Counters accumulate across runs; start from zero.
  find "$BUILD_DIR" -name '*.gcda' -delete
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" | tail -n 3)
  (
    cd "$BUILD_DIR"
    for b in multitenant overload trace_replay fig_matrix; do
      bench/bench_$b --smoke >/dev/null
    done
    for e in quickstart embedded_sensor_store cache_tier device_explorer \
             ycsb_runner microbench; do
      examples/$e >/dev/null
    done
  )
fi

python3 - "$BUILD_DIR" "$PWD" <<'PY'
import collections, json, os, subprocess, sys

build, root = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
# Every object counts: src/ headers are compiled into the tests too.
objs = []
for d, _, files in os.walk(build):
    objs += [os.path.abspath(os.path.join(d, f))
             for f in files if f.endswith(".gcda")]
if not objs:
    sys.exit("coverage: no .gcda files under %s; run the tests first"
             % build)

lines = collections.defaultdict(dict)  # file -> line -> ran in any object
funcs = {}                             # (file, line, name) -> ran anywhere
for obj in sorted(objs):
    out = subprocess.run(["gcov", "--json-format", "--stdout", obj],
                         cwd=os.path.dirname(obj), capture_output=True,
                         text=True, check=True).stdout
    for doc in out.splitlines():
        for f in json.loads(doc)["files"]:
            path = os.path.normpath(os.path.join(root, f["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, root)
            for ln in f["lines"]:
                n = ln["line_number"]
                lines[rel][n] = lines[rel].get(n, False) or ln["count"] > 0
            for fn in f["functions"]:
                key = (rel, fn["start_line"], fn["demangled_name"])
                funcs[key] = funcs.get(key, False) or fn["execution_count"] > 0

per_dir = collections.defaultdict(lambda: [0, 0])
for rel, ls in lines.items():
    d = per_dir[os.path.dirname(rel)]
    d[0] += sum(ls.values())
    d[1] += len(ls)
print("%-24s %8s %8s %7s" % ("directory", "run", "lines", "cover"))
for d in sorted(per_dir):
    ran, total = per_dir[d]
    print("%-24s %8d %8d %6.1f%%" % (d, ran, total, 100.0 * ran / total))
ran = sum(v[0] for v in per_dir.values())
total = sum(v[1] for v in per_dir.values())
print("%-24s %8d %8d %6.1f%%" % ("src (total)", ran, total,
                                 100.0 * ran / total))

never = sorted(k for k, v in funcs.items() if not v)
print("\n%d of %d src/ functions never ran:" % (len(never), len(funcs)))
for rel, line, name in never:
    print("  %s:%d  %s" % (rel, line, name))
PY
