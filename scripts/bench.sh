#!/usr/bin/env bash
# Wall-clock perf gate for the simulation core (see docs/API.md
# "Simulation core").
#
# Usage:
#   scripts/bench.sh               full google-benchmark microbenchmark run
#   scripts/bench.sh --smoke       timed smoke run of the event-queue cycle
#                                  plus the fig-matrix sweep; fails when
#                                  events/sec regresses >20% against the
#                                  committed BENCH_sim.json once both are
#                                  normalized by the host-speed probe
#                                  (bench_host_probe), when the steady
#                                  state allocates, when sweep-pool
#                                  scaling regresses >20% vs the committed
#                                  "sweep" baseline (compared only when the
#                                  baseline host had the same >=2 hardware
#                                  threads; absolute >=3x floor only on
#                                  >=8-core hardware), or
#                                  when the multi-tenant driver's fairness
#                                  or throughput regresses (fairness dev
#                                  <= 5%, sim ops/s within 20% of the
#                                  committed "multitenant" baseline once
#                                  both are normalized by the host-speed
#                                  probe, bench_host_probe), or
#                                  when trace replay loses record->replay
#                                  fidelity, drops below the 5M ops/s
#                                  floor, or regresses >20% vs the
#                                  committed "trace_replay" baseline
#                                  (probe-normalized), or
#                                  when the overload driver's SLO gate
#                                  breaks (protected p99 must hold the
#                                  target at 2x load with a bounded shed
#                                  fraction) or its probe-normalized sim
#                                  ops/s regresses >20% vs the committed
#                                  "overload" baseline
#   scripts/bench.sh --update      re-measure in 5 batches and rewrite
#                                  BENCH_sim.json: each section is its
#                                  median batch, with the quartiles of
#                                  the batches' gated rate beside it and
#                                  the host's hardware thread count
#
# An optional trailing argument overrides the build directory (default:
# build). The smoke gate is wired into scripts/ci.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=full
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --smoke) MODE=smoke ;;
    --update) MODE=update ;;
    -h|--help) sed -n '2,43p' "$0"; exit 0 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

BASELINE=BENCH_sim.json
CURRENT="$BUILD_DIR/BENCH_sim.json"
SWEEP_CURRENT="$BUILD_DIR/BENCH_sweep.json"
MT_CURRENT="$BUILD_DIR/BENCH_multitenant.json"
TR_CURRENT="$BUILD_DIR/BENCH_trace_replay.json"
OV_CURRENT="$BUILD_DIR/BENCH_overload.json"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target bench_sim_micro -j "$(nproc)"

if [ "$MODE" = full ]; then
  exec "$BUILD_DIR/bench/bench_sim_micro"
fi

cmake --build "$BUILD_DIR" --target bench_fig_matrix bench_multitenant \
  bench_trace_replay bench_overload bench_host_probe -j "$(nproc)"
# Every timed batch is bracketed by the host-speed probe; the mean of the
# two runs is the batch's probe_ms, which its section of the report (and,
# at --update, of BENCH_sim.json) carries. The wall-clock gates compare
# rates scaled by probe_ms over the baseline's.
probe() { "$BUILD_DIR/bench/bench_host_probe"; }
# stamp FILE BEFORE AFTER [RUNS]: keep the fastest of FILE.1..FILE.RUNS as
# FILE (when RUNS is given), then record the batch's probe time in it.
stamp() {
  python3 - "$@" <<'EOF2'
import json, sys
path, before, after = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
if len(sys.argv) > 4:
    runs = [json.load(open(f"{path}.{i}")) for i in range(1, int(sys.argv[4]) + 1)]
    doc = max(runs, key=lambda d: d["sim_ops_per_sec"])
else:
    doc = json.load(open(path))
doc["probe_ms"] = round((before + after) / 2, 3)
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF2
}
# measure DIR: one batch of every timed section, written to DIR under the
# names above.
measure() {
  local dir=$1 before
  mkdir -p "$dir"
  before=$(probe)
  "$BUILD_DIR/bench/bench_sim_micro" --kvsim_json="$dir/BENCH_sim.json"
  stamp "$dir/BENCH_sim.json" "$before" "$(probe)"
  before=$(probe)
  "$BUILD_DIR/bench/bench_fig_matrix" --smoke --threads=8 \
    --kvsim_json="$dir/BENCH_sweep.json"
  stamp "$dir/BENCH_sweep.json" "$before" "$(probe)"
  # Wall-clock best-of-3 (same idea as bench_sim_micro's internal
  # best-of-3): the bench runs ~150 ms, so a single sample is scheduler
  # noise on shared runners. Sim results are identical across runs; only
  # the wall-derived sim_ops_per_sec varies.
  before=$(probe)
  for i in 1 2 3; do
    "$BUILD_DIR/bench/bench_multitenant" --smoke \
      --kvsim_json="$dir/BENCH_multitenant.json.$i" > "$dir/multitenant_run.log"
  done
  stamp "$dir/BENCH_multitenant.json" "$before" "$(probe)" 3
  cat "$dir/multitenant_run.log"
  before=$(probe)
  "$BUILD_DIR/bench/bench_trace_replay" --smoke \
    --kvsim_json="$dir/BENCH_trace_replay.json"
  stamp "$dir/BENCH_trace_replay.json" "$before" "$(probe)"
  # Same best-of-3 treatment for the overload bench (~250 ms of wall
  # clock; its sim results are identical across runs, only the
  # wall-derived sim_ops_per_sec is scheduler-sensitive).
  before=$(probe)
  for i in 1 2 3; do
    "$BUILD_DIR/bench/bench_overload" --smoke \
      --kvsim_json="$dir/BENCH_overload.json.$i" > "$dir/overload_run.log"
  done
  stamp "$dir/BENCH_overload.json" "$before" "$(probe)" 3
  cat "$dir/overload_run.log"
}

if [ "$MODE" = update ]; then
  # One batch is one --smoke measurement; each section's baseline is its
  # median batch, so no single slow or fast spell of the host sets it.
  BATCHES=5
  rm -rf "$BUILD_DIR/bench_update"
  for b in $(seq 1 "$BATCHES"); do
    measure "$BUILD_DIR/bench_update/$b"
  done
  python3 - "$BASELINE" "$BUILD_DIR"/bench_update/* <<'EOF'
import json, os, statistics, sys

out, dirs = sys.argv[1], sys.argv[2:]

def median_batch(name, metric, normalize):
    """The batch with the median `metric`, with the quartiles over all
    batches beside it. A rate is ranked at one host speed (rate times
    probe_ms, as the smoke gate compares it), and its quartiles are given
    at the chosen batch's probe_ms; the sweep's speedup is a ratio and
    stays raw."""
    docs = [json.load(open(os.path.join(d, name))) for d in dirs]
    score = lambda d: d[metric] * (d["probe_ms"] if normalize else 1.0)
    docs.sort(key=score)
    doc = docs[(len(docs) - 1) // 2]
    scale = 1.0 / doc["probe_ms"] if normalize else 1.0
    q1, _, q3 = statistics.quantiles([score(d) * scale for d in docs], n=4)
    doc[metric + "_quartiles"] = [round(q1, 3), round(q3, 3)]
    doc["batches"] = len(docs)
    return doc

# The baseline document keeps the original flat event-cycle fields and
# carries the other sections as nested objects.
doc = median_batch("BENCH_sim.json", "events_per_sec", True)
doc["hw_threads"] = os.cpu_count()
doc["sweep"] = median_batch("BENCH_sweep.json", "speedup", False)
doc["multitenant"] = median_batch("BENCH_multitenant.json",
                                  "sim_ops_per_sec", True)
doc["trace_replay"] = median_batch("BENCH_trace_replay.json",
                                   "replay_ops_per_sec", True)
doc["overload"] = median_batch("BENCH_overload.json", "sim_ops_per_sec", True)
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
  echo "bench: baseline $BASELINE updated from $BATCHES batches"
  exit 0
fi

measure "$BUILD_DIR"

# --smoke: compare against the committed baseline.
if [ ! -f "$BASELINE" ]; then
  echo "bench: no committed $BASELINE; run scripts/bench.sh --update" >&2
  exit 1
fi

python3 - "$BASELINE" "$CURRENT" "$SWEEP_CURRENT" "$MT_CURRENT" "$TR_CURRENT" \
  "$OV_CURRENT" <<'EOF'
import json, sys

base = json.load(open(sys.argv[1]))
cur = json.load(open(sys.argv[2]))
sweep = json.load(open(sys.argv[3]))
mt = json.load(open(sys.argv[4]))
tr = json.load(open(sys.argv[5]))
ov = json.load(open(sys.argv[6]))

def normalized(rate, cur_doc, base_doc):
    """`rate` rescaled to the baseline host's speed: times this batch's
    probe time over the baseline's."""
    return rate * cur_doc["probe_ms"] / base_doc["probe_ms"]

def probes(cur_doc, base_doc):
    return (f"probe {cur_doc['probe_ms']:.1f} ms, baseline "
            f"{base_doc['probe_ms']:.1f} ms")

floor = 0.8 * base["events_per_sec"]  # 20% regression budget
events = normalized(cur["events_per_sec"], cur, base)
print(f"bench smoke: {cur['events_per_sec'] / 1e6:.2f}M events/s raw, "
      f"{events / 1e6:.2f}M normalized ({probes(cur, base)}); "
      f"baseline {base['events_per_sec'] / 1e6:.2f}M, "
      f"floor {floor / 1e6:.2f}M; "
      f"{cur['allocs_per_event']:.4f} allocs/event")
if events < floor:
    sys.exit("bench smoke FAILED: normalized events/sec regressed more "
             "than 20% -- if intentional, rerun scripts/bench.sh --update")
if cur["allocs_per_event"] >= 0.01:
    sys.exit("bench smoke FAILED: steady-state event cycle allocates "
             f"({cur['allocs_per_event']:.4f} allocs/event; expected ~0)")

# Sweep-pool scaling gate. Wall-clock speedup depends on the hardware,
# so a speedup is only comparable with a baseline taken on a host with
# the same hardware thread count, and only with parallel hardware on both
# sides (a 1-thread pool "speedup" is scheduler noise). Otherwise the
# gate is skipped and the sweep is held to its thread-count byte-identity
# check (bench_fig_matrix exits nonzero when the merged reports differ).
# The paper-style absolute >=3x floor applies only where it is physically
# meaningful (>=8 hardware threads).
base_sweep = base.get("sweep")
print(f"bench smoke: sweep speedup {sweep['speedup']:.2f}x at "
      f"{sweep['threads']} threads ({sweep['hw_threads']} hw)")
if base_sweep is None:
    print("bench smoke: no committed sweep baseline; scaling gate skipped "
          "-- run scripts/bench.sh --update")
elif (base_sweep.get("hw_threads") != sweep["hw_threads"]
      or sweep["hw_threads"] < 2):
    print(f"bench smoke: sweep scaling gate skipped (baseline taken on "
          f"{base_sweep.get('hw_threads')} hw threads, this host has "
          f"{sweep['hw_threads']}; both must match and be >= 2); "
          "thread-count byte-identity still gated")
else:
    sfloor = 0.8 * base_sweep["speedup"]
    if sweep["speedup"] < sfloor:
        sys.exit(f"bench smoke FAILED: sweep speedup {sweep['speedup']:.2f}x "
                 f"regressed >20% vs baseline {base_sweep['speedup']:.2f}x -- "
                 "if intentional, rerun scripts/bench.sh --update")
if sweep["hw_threads"] >= 8 and sweep["speedup"] < 3.0:
    sys.exit(f"bench smoke FAILED: sweep speedup {sweep['speedup']:.2f}x "
             "< 3x on >=8-core hardware")

def throughput_gate(label, cur, base_doc):
    if base_doc is None:
        print(f"bench smoke: no committed {label} baseline; perf gate "
              "skipped -- run scripts/bench.sh --update")
        return
    norm = normalized(cur["sim_ops_per_sec"], cur, base_doc)
    print(f"bench smoke: {label} {cur['sim_ops_per_sec'] / 1e3:.0f}k sim "
          f"ops/s raw, {norm / 1e3:.0f}k normalized "
          f"({probes(cur, base_doc)}); floor "
          f"{0.8 * base_doc['sim_ops_per_sec'] / 1e3:.0f}k")
    if norm < 0.8 * base_doc["sim_ops_per_sec"]:
        sys.exit(f"bench smoke FAILED: {label} {norm:.0f} normalized sim "
                 f"ops/s regressed >20% vs baseline "
                 f"{base_doc['sim_ops_per_sec']:.0f} -- "
                 "if intentional, rerun scripts/bench.sh --update")

# Multi-tenant gate: the WRR fairness bound is absolute (the acceptance
# criterion, not hardware-dependent); the driver's simulated-ops/sec,
# normalized by the host-speed probe, carries the same 20% regression
# budget as the other perf numbers.
print(f"bench smoke: multitenant fairness dev {100 * mt['fairness_max_dev']:.2f}%")
if mt["fairness_max_dev"] > 0.05:
    sys.exit(f"bench smoke FAILED: WRR fairness deviation "
             f"{100 * mt['fairness_max_dev']:.2f}% > 5%")
throughput_gate("multitenant", mt, base.get("multitenant"))
# Trace-replay gate: the >=5M replayed ops/s floor is the subsystem's
# absolute acceptance criterion (raw); regression vs the committed
# baseline carries the same 20% budget once probe-normalized, and
# record->replay fidelity is a hard pass/fail (byte-identical reports).
base_tr = base.get("trace_replay")
print(f"bench smoke: trace replay {tr['replay_ops_per_sec'] / 1e6:.1f}M ops/s, "
      f"{tr['file_bytes_per_op']:.1f} B/op, "
      f"fidelity {'ok' if tr['fidelity_identical'] else 'BROKEN'}")
if not tr["fidelity_identical"]:
    sys.exit("bench smoke FAILED: record->replay is not byte-identical")
if tr["replay_ops_per_sec"] < 5e6:
    sys.exit(f"bench smoke FAILED: trace replay "
             f"{tr['replay_ops_per_sec'] / 1e6:.1f}M ops/s < 5M floor")
if base_tr is None:
    print("bench smoke: no committed trace_replay baseline; regression "
          "gate skipped -- run scripts/bench.sh --update")
else:
    replay = normalized(tr["replay_ops_per_sec"], tr, base_tr)
    print(f"bench smoke: trace replay {replay / 1e6:.1f}M ops/s normalized "
          f"({probes(tr, base_tr)}); floor "
          f"{0.8 * base_tr['replay_ops_per_sec'] / 1e6:.1f}M")
    if replay < 0.8 * base_tr["replay_ops_per_sec"]:
        sys.exit(f"bench smoke FAILED: trace replay {replay / 1e6:.1f}M "
                 f"normalized ops/s regressed >20% vs baseline "
                 f"{base_tr['replay_ops_per_sec'] / 1e6:.1f}M -- "
                 "if intentional, rerun scripts/bench.sh --update")
# Overload gate: the graceful-degradation contract is absolute (the
# admission controller must hold the protected tenant's p99 within the
# derived SLO target at 2x saturating load while shedding only the
# excess); the driver's probe-normalized simulated-ops/sec carries the
# same 20% budget.
print(f"bench smoke: overload slo {'held' if ov['slo_held'] else 'BROKEN'}, "
      f"shed {100 * ov['shed_rate_at_2x']:.1f}% at 2x")
if not ov["slo_held"]:
    sys.exit(f"bench smoke FAILED: protected p99 "
             f"{ov['protected_p99_at_2x_ns'] / 1e3:.0f}us exceeds SLO target "
             f"{ov['slo_target_ns'] / 1e3:.0f}us at 2x load")
if not 0.0 < ov["shed_rate_at_2x"] < 0.8:
    sys.exit(f"bench smoke FAILED: overload shed fraction "
             f"{100 * ov['shed_rate_at_2x']:.1f}% at 2x outside (0%, 80%) -- "
             "the controller must shed the excess, not the stream")
throughput_gate("overload", ov, base.get("overload"))
print("bench smoke passed")
EOF
