#include "harness/runner.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/inline_key.h"
#include "workload/trace.h"

namespace kvsim::harness {

namespace {

/// Build a tenant's op source: the factory when one is set, else the
/// synthetic generator over its spec (the exact pre-OpSource behavior).
std::unique_ptr<wl::OpSource> make_source(const wl::TenantSpec& ts) {
  if (!ts.source) return std::make_unique<wl::SyntheticOpSource>(ts.spec);
  auto src = ts.source();
  if (!src)
    throw std::runtime_error("TenantSpec::source factory returned null");
  return src;
}

/// Per-op contribution to a tenant's result-stream digest: FNV-1a over
/// the functional outcome, summed commutatively by the caller so
/// timing-induced completion reordering cannot change the digest.
u64 op_digest(wl::OpType type, u64 key_id, Status s, u64 bytes, u64 fp) {
  u64 h = 14695981039346656037ULL;
  auto fold = [&h](u64 x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  fold((u64)type);
  fold(key_id);
  fold((u64)s);
  fold(bytes);
  fold(fp);
  return h;
}

/// An arrival waiting for dispatch-window room (open-loop mode): the op,
/// its scheduled arrival time (latency counts from here), and an optional
/// admission deadline (0 = none; plain window overflow).
struct Parked {
  wl::Op op;
  TimeNs arrived;
  TimeNs deadline;
};

/// Issue-loop state for one tenant of a mix: its own op stream, closed
/// loop window, logical op counter (the value-fingerprint version — a
/// per-tenant sequence number, so stored values are independent of
/// co-runner timing), observables, and result-stream digest. Open-loop
/// tenants additionally own an arrival-gap generator, the host backlog,
/// and (when an SLO is enabled) an AdmissionController.
struct TenantState {
  wl::TenantSpec tspec;
  std::unique_ptr<wl::OpSource> source;
  TenantCtx ctx;
  RunResult result;
  u64 inflight = 0;
  u64 completed = 0;
  u64 op_seq = 0;
  u64 digest = 0;
  TimeNs last_completion = 0;
  bool exhausted = false;
  /// Concurrent dispatch cap: queue_depth on a closed loop,
  /// arrival.max_inflight on an open one.
  u64 window;

  // --- open-loop arrival machinery (null / empty for closed loop) -------
  bool open_loop = false;
  std::unique_ptr<wl::ArrivalGen> arrivals;
  std::unique_ptr<AdmissionController> admission;
  std::deque<Parked> backlog;
  TimeNs next_arrival = 0;      ///< arrival clock, relative to run start
  bool arrival_pending = false; ///< an arrival event is on the queue

  TenantState(const wl::TenantSpec& ts, const SloSpec* slo)
      : tspec(ts), source(make_source(ts)), ctx{ts.nsid, ts.queue},
        window(ts.spec.queue_depth) {
    const wl::ArrivalSchedule& sched = ts.spec.arrival;
    if (!sched.open_loop()) return;
    open_loop = true;
    window = sched.max_inflight;
    // ArrivalGen validates the schedule — a custom OpSource factory
    // bypasses WorkloadSpec::validate(), this does not.
    arrivals = std::make_unique<wl::ArrivalGen>(sched, ts.spec.seed);
    if (slo != nullptr && slo->enabled())
      admission = std::make_unique<AdmissionController>(*slo);
  }
};

/// Shared issue-loop state for a KvStack mix run. With one tenant this
/// reduces exactly to the original single-stream driver: the round-robin
/// initial fill degenerates to a straight window fill and every
/// completion refills the sole window.
struct MixDriver {
  KvStack& stack;
  std::vector<TenantState> tenants;
  RunResult result;  // combined across tenants
  TraceRecorder* trace;
  wl::KvtWriter* record;  // op-stream capture (RunOptions::record_ops)
  TimeNs t0;
  u64 cpu0;
  u64 inflight = 0;
  u64 completed = 0;
  u64 backlog_total = 0;  ///< parked arrivals across all tenants

  MixDriver(KvStack& s, const wl::TenantMix& mix, const RunOptions& opts)
      : stack(s), trace(opts.trace), record(opts.record_ops) {
    tenants.reserve(mix.tenants.size());
    for (u32 ti = 0; ti < (u32)mix.tenants.size(); ++ti)
      tenants.emplace_back(mix.tenants[ti],
                           ti < opts.slos.size() ? &opts.slos[ti] : nullptr);
    t0 = stack.eq().now();
    cpu0 = stack.host_cpu_ns();
  }

  /// Fill tenant `ti`'s dispatch window with at most `max_ops` ops: first
  /// the arrival backlog, expiring deferred ops whose deadline has passed,
  /// then, on a closed loop, the op source. Returns whether an op was
  /// dispatched.
  bool refill(u32 ti, u64 max_ops = ~0ull) {
    TenantState& st = tenants[ti];
    const TimeNs now = stack.eq().now();
    u64 issued = 0;
    while (issued < max_ops && st.inflight < st.window) {
      if (!st.backlog.empty()) {
        Parked p = std::move(st.backlog.front());
        st.backlog.pop_front();
        --backlog_total;
        if (p.deadline != 0 && now > p.deadline) {
          shed(ti, p.op, Status::kDeadlineExceeded);
          continue;
        }
        dispatch(ti, p.op, p.arrived);
      } else {
        if (st.open_loop || st.exhausted) break;
        wl::Op op;
        if (!st.source->next(op)) {
          st.exhausted = true;
          break;
        }
        dispatch(ti, op, now);
      }
      ++issued;
    }
    return issued != 0;
  }

  /// Initial fill: round-robin one op per tenant per pass, declaration
  /// order, until every window is full or exhausted — the deterministic
  /// interleave the mix API promises. Open-loop tenants, whose backlog is
  /// empty here, have their first arrival armed instead.
  void issue_all() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (u32 ti = 0; ti < (u32)tenants.size(); ++ti)
        progress = refill(ti, 1) || progress;
    }
    for (u32 ti = 0; ti < (u32)tenants.size(); ++ti) arm_arrival(ti);
  }

  /// Schedule tenant `ti`'s next open-loop arrival, advancing its arrival
  /// clock by one generator gap. After a crash cut the clock may trail
  /// the simulation clock (the recovery ran on it); arrivals resume from
  /// "now", not from the missed past.
  void arm_arrival(u32 ti) {
    TenantState& st = tenants[ti];
    if (!st.open_loop || st.exhausted || st.arrival_pending) return;
    const TimeNs now_rel = stack.eq().now() - t0;
    if (st.next_arrival < now_rel) st.next_arrival = now_rel;
    st.next_arrival += st.arrivals->next_gap();
    st.arrival_pending = true;
    stack.eq().schedule_at(t0 + st.next_arrival,
                           sim::Task([this, ti] { on_arrival(ti); }));
  }

  /// One scheduled arrival: pull the next op, keep the arrival clock
  /// ticking (open loop — regardless of completions), then offer the op
  /// to admission control and dispatch, park, or shed it.
  void on_arrival(u32 ti) {
    TenantState& st = tenants[ti];
    st.arrival_pending = false;
    wl::Op op;
    if (!st.source->next(op)) {
      st.exhausted = true;
      return;
    }
    arm_arrival(ti);
    const TimeNs now = stack.eq().now();
    ++result.offered_ops;
    ++st.result.offered_ops;
    const bool is_read = op.type == wl::OpType::kRead ||
                         op.type == wl::OpType::kExist ||
                         op.type == wl::OpType::kScan;
    Admission verdict = Admission::kAdmit;
    if (st.admission)
      verdict = st.admission->decide(is_read, st.inflight,
                                     st.backlog.size());
    switch (verdict) {
      case Admission::kShed:
        shed(ti, op, Status::kShed);
        return;
      case Admission::kDefer:
        ++result.deferred_ops;
        ++st.result.deferred_ops;
        park(ti, op, now, now + st.admission->slo().deadline());
        // A deferred op still dispatches the moment the window has room
        // (deferral only bites under backpressure); without this, a
        // tenant with nothing in flight would never drain its backlog.
        refill(ti);
        return;
      case Admission::kAdmit:
        break;
    }
    if (st.inflight < st.window && st.backlog.empty()) {
      dispatch(ti, op, now);
      return;
    }
    ++result.arrival_overflows;
    ++st.result.arrival_overflows;
    park(ti, op, now, /*deadline=*/0);
  }

  /// Park an arrival in the tenant's FIFO backlog.
  void park(u32 ti, const wl::Op& op, TimeNs arrived, TimeNs deadline) {
    TenantState& st = tenants[ti];
    st.backlog.push_back(Parked{op, arrived, deadline});
    ++backlog_total;
    if (st.backlog.size() > st.result.backlog_peak)
      st.result.backlog_peak = st.backlog.size();
    if (backlog_total > result.backlog_peak)
      result.backlog_peak = backlog_total;
  }

  /// Fail an arrival without dispatching it. Shed ops never reach the
  /// device: they cost no latency sample and no bandwidth, but they do
  /// land in the error breakdown and the tenant digest (shed decisions
  /// are part of the deterministic result stream).
  void shed(u32 ti, const wl::Op& op, Status s) {
    TenantState& st = tenants[ti];
    if (s == Status::kShed) {
      ++result.shed_ops;
      ++st.result.shed_ops;
    } else {
      ++result.deadline_exceeded_ops;
      ++st.result.deadline_exceeded_ops;
    }
    result.errors.count(s);
    st.result.errors.count(s);
    st.digest += op_digest(op.type, op.key_id, s, 0, 0);
  }

  /// Issue one op. `start` is the latency anchor: "now" on the closed
  /// loop, the scheduled arrival time on the open loop — so host backlog
  /// wait under overload counts against the tail, as a client sees it.
  void dispatch(u32 ti, const wl::Op& op, TimeNs start) {
    TenantState& st = tenants[ti];
    if (record)
      record->add(wl::TraceOp{op.type, op.key_id, op.value_bytes,
                              op.scan_length, ti});
    ++st.inflight;
    ++inflight;
    const u64 version = ++st.op_seq;
    InlineKey key;
    wl::make_key(op.key_id, st.tspec.spec.key_bytes, key);
    const u64 op_bytes = key.size() + op.value_bytes;
    const wl::OpType type = op.type;
    const u64 key_id = op.key_id;
    switch (op.type) {
      case wl::OpType::kInsert:
      case wl::OpType::kUpdate:
        // Captures stay within sim::Fn's inline buffer: an insert is told
        // apart by `type`.
        stack.store_as(
            st.ctx, key.view(),
            ValueDesc{op.value_bytes,
                      wl::value_fingerprint(op.key_id, version)},
            [this, ti, start, op_bytes, type, key_id](Status s) {
              finish(ti, s, start,
                     type == wl::OpType::kInsert ? &RunResult::insert
                                                 : &RunResult::update,
                     op_bytes, type, key_id, /*fp=*/0);
            });
        break;
      case wl::OpType::kRead:
      case wl::OpType::kExist:
        stack.retrieve_as(
            st.ctx, key.view(),
            [this, ti, start, type, key_id](Status s, ValueDesc v) {
              finish(ti, s, start, &RunResult::read, v.size, type, key_id,
                     v.fingerprint);
            });
        break;
      case wl::OpType::kScan:
        scan_step(ti, op.key_id, std::max<u32>(1, op.scan_length), start, 0);
        break;
      case wl::OpType::kDelete:
        stack.remove_as(st.ctx, key.view(),
                        [this, ti, start, type, key_id](Status s) {
                          finish(ti, s, start, &RunResult::del, 0, type,
                                 key_id, /*fp=*/0);
                        });
        break;
    }
  }

  /// A scan is `remaining` consecutive point retrieves; one latency sample
  /// covers the whole range (YCSB-E semantics over a KV iterator).
  void scan_step(u32 ti, u64 key_id, u32 remaining, TimeNs start,
                 u64 bytes) {
    TenantState& st = tenants[ti];
    InlineKey key;
    wl::make_key(key_id % std::max<u64>(1, st.tspec.spec.key_space),
                 st.tspec.spec.key_bytes, key);
    stack.retrieve_as(
        st.ctx, key.view(),
        [this, ti, key_id, remaining, start, bytes](Status s, ValueDesc v) {
          const u64 total = bytes + v.size;
          if (remaining <= 1 ||
              (s != Status::kOk && s != Status::kNotFound)) {
            finish(ti, s == Status::kNotFound ? Status::kOk : s, start,
                   &RunResult::scan, total, wl::OpType::kScan, key_id,
                   /*fp=*/0);
            return;
          }
          scan_step(ti, key_id + 1, remaining - 1, start, total);
        });
  }

  void finish(u32 ti, Status s, TimeNs start, LatencyHistogram RunResult::*h,
              u64 bytes, wl::OpType type, u64 key_id, u64 fp) {
    TenantState& st = tenants[ti];
    const TimeNs now = stack.eq().now();
    (result.*h).record(now - start);
    result.all.record(now - start);
    result.bw.add(now - t0, bytes);
    result.telemetry.poll(now);
    (st.result.*h).record(now - start);
    st.result.all.record(now - start);
    st.result.bw.add(now - t0, bytes);
    st.digest += op_digest(type, key_id, s, bytes, fp);
    st.last_completion = now - t0;
    if (trace)
      trace->add(TraceRecord{start - t0, now - start, type, key_id,
                             (u32)bytes, s});
    if (s == Status::kNotFound) {
      ++result.not_found;
      ++st.result.not_found;
    } else if (s != Status::kOk) {
      result.errors.count(s);
      st.result.errors.count(s);
    }
    if (st.admission) {
      // Feed the windowed estimator, and count SLO goodput: successful
      // completions that landed within the tenant's target.
      st.admission->on_completion(now - start);
      if ((s == Status::kOk || s == Status::kNotFound) &&
          now - start <= st.admission->slo().p99_target_ns) {
        ++result.slo_goodput_ops;
        ++st.result.slo_goodput_ops;
      }
    }
    --st.inflight;
    --inflight;
    ++completed;
    ++st.completed;
    refill(ti);
  }

  bool done() const {
    if (inflight != 0) return false;
    for (const TenantState& st : tenants) {
      if (!st.exhausted) return false;
      if (!st.backlog.empty() || st.arrival_pending) return false;
    }
    return true;
  }
};

}  // namespace

MixResult run_mix(KvStack& stack, const wl::TenantMix& mix,
                  const RunOptions& opts) {
  if (opts.faults.enabled) stack.apply_fault_plan(opts.faults);
  const u64 retries0 = stack.host_retries();
  const nvme::NvmeLink* link = stack.nvme_link();
  std::vector<nvme::NvmeQueueStats> qstats0;
  u64 rounds0 = 0;
  u64 urgent0 = 0;
  if (link) {
    for (u32 q = 0; q < link->num_queues(); ++q)
      qstats0.push_back(link->queue_stats(q));
    rounds0 = link->arbitration_rounds();
    urgent0 = link->urgent_fetches();
  }
  MixDriver drv(stack, mix, opts);
  if (opts.telemetry) {
    drv.result.telemetry = ssd::TelemetryCollector(opts.telemetry_interval);
    drv.result.telemetry.attach(
        stack.eq().now(), stack.ftl_stats(), stack.flash_ctrl(),
        [&stack] { return stack.buffer_stall_events(); }, &stack.eq());
  }
  drv.issue_all();
  sim::EventQueue& eq = stack.eq();
  const bool want_crash = opts.crash_at_ns > 0 && stack.crash_supported();
  while (!drv.done() && eq.step()) {
    if (want_crash && !drv.result.crashed &&
        eq.now() - drv.t0 >= opts.crash_at_ns) {
      // Power cut: ops in flight die with the event queue, so the issue
      // loop must forget them or it would wait forever for completions
      // that were never going to run.
      drv.result.recovery = stack.simulate_crash();
      drv.result.crashed = true;
      drv.inflight = 0;
      for (TenantState& st : drv.tenants) {
        st.inflight = 0;
        // Backlogged arrivals and the pending arrival event died with
        // the event queue; issue_all() below re-arms the arrival clocks.
        st.backlog.clear();
        st.arrival_pending = false;
      }
      drv.backlog_total = 0;
      drv.issue_all();
    }
  }
  drv.result.elapsed = eq.now() - drv.t0;
  drv.result.ops = drv.completed;
  if (opts.drain_after) {
    bool drained = false;
    stack.drain([&drained] { drained = true; });
    while (!drained && eq.step()) {
    }
    // The queue ran dry with the drain still waiting: it never will run,
    // and its callback would outlive `drained`.
    if (!drained)
      throw std::logic_error(std::string("run_mix: ") + stack.name() +
                             " never called back from drain");
  }
  // Close the trailing partial window (after the drain, so background GC
  // and flush traffic lands in the timeline too).
  drv.result.telemetry.finalize(eq.now());
  drv.result.host_cpu_ns = stack.host_cpu_ns() - drv.cpu0;
  drv.result.host_retries = stack.host_retries() - retries0;

  MixResult out;
  for (u32 ti = 0; ti < (u32)drv.tenants.size(); ++ti) {
    TenantState& st = drv.tenants[ti];
    st.result.elapsed = drv.result.elapsed;
    st.result.ops = st.completed;
    st.result.crashed = drv.result.crashed;
    TenantResult tr;
    tr.name = st.tspec.name.empty()
                  ? std::string("t").append(std::to_string(ti))
                  : st.tspec.name;
    tr.weight = st.tspec.weight;
    tr.queue = st.tspec.queue;
    tr.nsid = st.tspec.nsid;
    tr.digest = st.digest;
    tr.last_completion_ns = st.last_completion;
    tr.result = std::move(st.result);
    out.tenants.push_back(std::move(tr));
  }
  if (link) {
    for (u32 q = 0; q < link->num_queues(); ++q) {
      const nvme::NvmeQueueStats now = link->queue_stats(q);
      QueueUsage u{q, counter_delta(qstats0[q], now)};
      u.stats.max_occupancy = now.max_occupancy;  // a high water, not a sum
      out.queues.push_back(u);
    }
    out.arbitration_rounds = link->arbitration_rounds() - rounds0;
    out.urgent_fetches = link->urgent_fetches() - urgent0;
  }
  out.combined = std::move(drv.result);
  return out;
}

RunResult run_workload(KvStack& stack, const wl::WorkloadSpec& spec,
                       const RunOptions& opts) {
  return run_mix(stack, wl::TenantMix::single(spec), opts).combined;
}

RunResult run_workload(KvStack& stack, const wl::WorkloadSpec& shape,
                       wl::OpSourceFactory source, const RunOptions& opts) {
  wl::TenantMix mix = wl::TenantMix::single(shape);
  mix.tenants[0].source = std::move(source);
  return run_mix(stack, mix, opts).combined;
}

RunResult fill_stack(KvStack& stack, u64 keys, u32 key_bytes, u32 value_bytes,
                     u32 queue_depth, u64 seed) {
  wl::WorkloadSpec spec;
  spec.num_ops = keys;
  spec.key_space = keys;
  spec.key_bytes = key_bytes;
  spec.value_bytes = value_bytes;
  spec.pattern = wl::Pattern::kSequential;
  spec.mix = wl::OpMix::insert_only();
  spec.queue_depth = queue_depth;
  spec.seed = seed;
  return run_workload(stack, spec, RunOptions{.drain_after = true});
}

RunResult run_block(sim::EventQueue& eq, blockapi::BlockDevice& dev,
                    const BlockRunSpec& spec, bool flush_after) {
  struct BlockDriver {
    sim::EventQueue& eq;
    blockapi::BlockDevice& dev;
    BlockRunSpec spec;
    RunResult result;
    Rng rng;
    TimeNs t0;
    u64 issued = 0, completed = 0, inflight = 0;
    u64 span_ios;
    u64 cursor = 0;

    BlockDriver(sim::EventQueue& e, blockapi::BlockDevice& d,
                const BlockRunSpec& sp)
        : eq(e), dev(d), spec(sp), rng(sp.seed), t0(e.now()) {
      const u64 span = spec.span_bytes ? spec.span_bytes
                                       : dev.capacity_bytes();
      span_ios = std::max<u64>(1, span / spec.io_bytes);
    }

    Lba next_lba() {
      u64 io_index;
      if (spec.sequential) {
        io_index = cursor++ % span_ios;
      } else {
        io_index = rng.below(span_ios);
      }
      return io_index * (spec.io_bytes / 512);
    }

    void issue_more() {
      while (inflight < spec.queue_depth && issued < spec.num_ops) {
        ++issued;
        ++inflight;
        const TimeNs start = eq.now();
        const Lba lba = next_lba();
        if (spec.op == BlockOp::kWrite) {
          dev.write(lba, spec.io_bytes, issued,
                    [this, start](Status s) { finish(s, start); });
        } else {
          dev.read(lba, spec.io_bytes,
                   [this, start](Status s, u64) { finish(s, start); });
        }
      }
    }

    void finish(Status s, TimeNs start) {
      const TimeNs now = eq.now();
      result.all.record(now - start);
      (spec.op == BlockOp::kWrite ? result.insert : result.read)
          .record(now - start);
      result.bw.add(now - t0, spec.io_bytes);
      if (s != Status::kOk) result.errors.count(s);
      --inflight;
      ++completed;
      issue_more();
    }

    bool done() const { return issued >= spec.num_ops && inflight == 0; }
  };

  BlockDriver drv(eq, dev, spec);
  drv.issue_more();
  while (!drv.done() && eq.step()) {
  }
  drv.result.elapsed = eq.now() - drv.t0;
  drv.result.ops = drv.completed;
  if (flush_after) {
    bool flushed = false;
    dev.flush([&flushed] { flushed = true; });
    while (!flushed && eq.step()) {
    }
  }
  return drv.result;
}

}  // namespace kvsim::harness
