// The benchmark's window onto the stack under test. Every op the runner
// draws and issues passes through two wrappers built only on public
// interfaces (wl::OpSource, harness::KvStack):
//
//   CheckedSource  notes when and which key the runner drew (the latency
//                  anchor: for an open loop that is the scheduled arrival);
//   CheckedStack   forwards each call to the bed, records the op's
//                  simulated latency at completion, and checks its result.
//
// The check is linearizability of each key. A read may return a store
// that was in flight or acknowledged while the read was, or a store
// acknowledged before the read was issued that no later-issued store had
// superseded by then: one acknowledged no earlier than the latest issue
// among the stores acknowledged before the read. Issues and acks are
// stamped from one counter; every key keeps its last kRing acknowledged
// stores (fingerprint, ack stamp) and that latest issue stamp. A read
// whose legal stores may have left the ring is counted as unverified
// instead. A read must also return OK and the workload's value size, and
// any non-OK status fails the op (every key is filled first, and nothing
// deletes).
//
// With a Tracer attached, the wrappers also record host-time spans around
// each call into a layer: workload.next, stack.issue, runner.complete.
// Neither wrapper schedules events or changes what the bed sees, so the
// simulation is identical with and without them.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness/stack_iface.h"
#include "workload/workload.h"

namespace e2e {

using namespace kvsim;  // NOLINT: benchmark code reads better unqualified

inline i64 host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-time spans with self-time accounting. Spans nest (a completion
/// issues the next op from inside its callback); a span's self time is its
/// duration minus its children's. Spans of the first `keep_ops` ops from
/// keep_from() on are also kept, in a buffer sized up front, for the
/// Chrome trace-event export.
class Tracer {
 public:
  enum Kind : u8 { kNext, kIssue, kComplete, kKinds };
  static constexpr const char* kNames[kKinds] = {
      "workload.next", "stack.issue", "runner.complete"};

  explicit Tracer(u64 keep_ops) : keep_ops_(keep_ops) {
    open_.reserve(64);
    kept_.reserve(keep_ops * kKinds);
  }

  void keep_from(u64 first_op) { first_op_ = first_op; }

  void open(Kind k, u64 op) {
    const u64 parent = open_.empty() ? 0 : open_.back().id;
    open_.push_back(Open{k, op, ++last_id_, parent, host_now_ns(), 0});
  }

  void close() {
    const i64 end = host_now_ns();
    const Open o = open_.back();
    open_.pop_back();
    const i64 dur = end - o.start;
    self_ns_[o.kind] += dur - o.child_ns;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (o.op - first_op_ < keep_ops_ && kept_.size() < kept_.capacity())
      kept_.push_back(Span{o.id, o.parent, o.op, o.start, dur, o.kind});
  }

  /// RAII span; a null tracer makes it free.
  class Scope {
   public:
    Scope(Tracer* t, Kind k, u64 op) : t_(t) {
      if (t_) t_->open(k, op);
    }
    ~Scope() {
      if (t_) t_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  [[nodiscard]] i64 self_ns(Kind k) const { return self_ns_[k]; }

  /// Write the kept spans as Chrome trace-event JSON (chrome://tracing,
  /// ui.perfetto.dev). Times are microseconds from the first kept span.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const i64 t0 = kept_.empty() ? 0 : std::min_element(
        kept_.begin(), kept_.end(), [](const Span& a, const Span& b) {
          return a.start < b.start;
        })->start;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Span& s = kept_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"span\":%llu,\"parent\":%llu}}",
                   i ? "," : "", kNames[s.kind], (double)(s.start - t0) / 1e3,
                   (double)s.dur / 1e3, (unsigned long long)s.op,
                   (unsigned long long)s.id, (unsigned long long)s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    Kind kind;
    u64 op;
    u64 id;
    u64 parent;
    i64 start;
    i64 child_ns;
  };
  struct Span {
    u64 id;
    u64 parent;
    u64 op;
    i64 start;
    i64 dur;
    Kind kind;
  };

  u64 first_op_ = 0;
  u64 keep_ops_;
  u64 last_id_ = 0;
  std::vector<Open> open_;
  std::vector<Span> kept_;
  std::array<i64, kKinds> self_ns_{};
};

/// One tenant's keyspace as the workload defines it.
struct Lane {
  u8 nsid;
  u64 keys;
  u32 key_bytes;
  u32 value_bytes;
};

class CheckedStack final : public harness::KvStack {
 public:
  static constexpr u32 kRing = 7;  // 60 B per key

  CheckedStack(std::unique_ptr<harness::KvStack> inner,
               std::vector<Lane> lanes)
      : inner_(std::move(inner)), lanes_(std::move(lanes)) {
    lane_of_.fill(-1);
    u64 base = 0;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      lane_of_[lanes_[i].nsid] = (int)i;
      lane_state_.push_back(LaneState{base, {}, 0, 0});
      base += lanes_[i].keys;
    }
    keys_.assign(base, KeyLog{});
  }

  // --- measurement controls ----------------------------------------------
  /// Start keeping one latency sample per completed op, with room for
  /// `expect_ops` of them.
  void record_latencies(u64 expect_ops) {
    recording_ = true;
    latencies_.reserve(expect_ops);
  }
  /// Stop recording and hand the samples over.
  std::vector<TimeNs> take_latencies() {
    recording_ = false;
    return std::move(latencies_);
  }
  /// Heap bytes of the per-key rings and the latency samples so far: the
  /// checker's own memory, which grows with keys and ops.
  [[nodiscard]] u64 footprint_bytes() const {
    return keys_.size() * sizeof(KeyLog) + latencies_.size() * sizeof(TimeNs);
  }
  /// Key + value bytes of stores issued while recording.
  [[nodiscard]] u64 app_bytes_stored() const { return app_bytes_stored_; }
  /// Attach (or detach, with nullptr) a tracer; it keeps the spans of the
  /// ops drawn from now on.
  void set_tracer(Tracer* t) {
    tracer_ = t;
    if (t) t->keep_from(ops_drawn_);
  }
  /// Ops drawn so far (the op id of the next draw).
  [[nodiscard]] u64 ops_drawn() const { return ops_drawn_; }
  [[nodiscard]] u64 failures() const { return failures_; }
  /// Reads that overlapped more acked stores than the ring holds.
  [[nodiscard]] u64 unverified_reads() const { return unverified_; }
  /// First failure, for the report.
  [[nodiscard]] const std::string& first_failure() const {
    return first_failure_;
  }

  /// Wrap `factory`'s source for tenant `nsid`; the result is what the
  /// runner draws from.
  wl::OpSourceFactory source(wl::OpSourceFactory factory, u8 nsid) {
    return [this, factory = std::move(factory), nsid] {
      return std::unique_ptr<wl::OpSource>(
          new CheckedSource(*this, factory(), lane_index(nsid)));
    };
  }

  // --- KvStack -------------------------------------------------------------
  void store(std::string_view key, ValueDesc v, StoreDone done) override {
    store_as(harness::TenantCtx{}, key, v, std::move(done));
  }
  void retrieve(std::string_view key, RetrieveDone done) override {
    retrieve_as(harness::TenantCtx{}, key, std::move(done));
  }
  void remove(std::string_view key, RemoveDone done) override {
    remove_as(harness::TenantCtx{}, key, std::move(done));
  }

  void store_as(const harness::TenantCtx& t, std::string_view key,
                ValueDesc v, StoreDone done) override {
    const u32 li = lane_index(t.nsid);
    const Drawn d = take(li, key);
    if (v.size != lanes_[li].value_bytes) fail("store of unexpected size");
    if (recording_) app_bytes_stored_ += key.size() + v.size;
    const u32 slot = park(d, li);
    Pending& p = pending_[slot];
    p.store_done = std::move(done);
    p.store = true;
    p.fp = (u32)v.fingerprint;
    p.stamp = ++stamp_;
    Tracer::Scope span(tracer_, Tracer::kIssue, d.op);
    inner_->store_as(t, key, v,
                     [this, slot](Status s) { on_stored(slot, s); });
  }

  void retrieve_as(const harness::TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    const u32 li = lane_index(t.nsid);
    const Drawn d = take(li, key);
    const u32 slot = park(d, li);
    Pending& p = pending_[slot];
    p.read_done = std::move(done);
    p.store = false;
    p.stamp = key_log(li, d.key_id).last_issue;
    Tracer::Scope span(tracer_, Tracer::kIssue, d.op);
    inner_->retrieve_as(t, key, [this, slot](Status s, ValueDesc v) {
      on_retrieved(slot, s, v);
    });
  }

  void remove_as(const harness::TenantCtx&, std::string_view,
                 RemoveDone) override {
    // The read check assumes every key stays present.
    throw std::logic_error("benchmark workloads issue no deletes");
  }

  void drain(sim::Task done) override { inner_->drain(std::move(done)); }
  sim::EventQueue& eq() override { return inner_->eq(); }
  [[nodiscard]] u64 host_cpu_ns() const override {
    return inner_->host_cpu_ns();
  }
  [[nodiscard]] u64 device_bytes_used() const override {
    return inner_->device_bytes_used();
  }
  [[nodiscard]] u64 app_bytes_live() const override {
    return inner_->app_bytes_live();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] const nvme::NvmeLink* nvme_link() const override {
    return inner_->nvme_link();
  }
  [[nodiscard]] const ssd::FtlStats* ftl_stats() const override {
    return inner_->ftl_stats();
  }
  [[nodiscard]] const flash::FlashController* flash_ctrl() const override {
    return inner_->flash_ctrl();
  }
  [[nodiscard]] u64 buffer_stall_events() const override {
    return inner_->buffer_stall_events();
  }
  [[nodiscard]] u64 host_retries() const override {
    return inner_->host_retries();
  }

 private:
  /// An op between draw and issue: its latency anchor, key, and op id.
  struct Drawn {
    TimeNs anchor;
    u64 key_id;
    u64 op;
  };

  /// Draw-order FIFO of one lane. The runner issues each lane's ops in
  /// the order it drew them (closed loop: at once; open loop: through a
  /// FIFO backlog), so the head is always the op being issued.
  struct LaneState {
    u64 key_base;
    std::vector<Drawn> fifo;  // ring buffer, capacity a power of two
    u64 head;
    u64 tail;
  };

  struct Acked {
    u32 fp = 0;   // low fingerprint word
    u32 ack = 0;  // ack stamp; 0 = empty
  };
  struct KeyLog {
    u32 last_issue = 0;  // latest issue stamp among acknowledged stores
    std::array<Acked, kRing> acked{};  // newest first
  };

  /// An issued op awaiting completion.
  struct Pending {
    StoreDone store_done;
    RetrieveDone read_done;
    TimeNs anchor = 0;
    u64 key_id = 0;
    u64 op = 0;
    u32 lane = 0;
    u32 fp = 0;     // store: the fingerprint written
    u32 stamp = 0;  // store: issue stamp; read: key's last_issue at issue
    bool store = false;
    bool live = false;
  };

  class CheckedSource final : public wl::OpSource {
   public:
    CheckedSource(CheckedStack& s, std::unique_ptr<wl::OpSource> inner,
                  u32 lane)
        : s_(s), inner_(std::move(inner)), lane_(lane) {
      if (!inner_) throw std::runtime_error("op source factory returned null");
    }
    bool next(wl::Op& out) override {
      const u64 op = s_.ops_drawn_;
      Tracer::Scope span(s_.tracer_, Tracer::kNext, op);
      if (!inner_->next(out)) return false;
      ++s_.ops_drawn_;
      s_.push(lane_, Drawn{s_.inner_->eq().now(), out.key_id, op});
      return true;
    }
    [[nodiscard]] u64 generated() const override {
      return inner_->generated();
    }
    void reset(u64 seed) override { inner_->reset(seed); }

   private:
    CheckedStack& s_;
    std::unique_ptr<wl::OpSource> inner_;
    u32 lane_;
  };

  u32 lane_index(u8 nsid) const {
    const int li = lane_of_[nsid];
    if (li < 0) throw std::logic_error("op for an undeclared namespace");
    return (u32)li;
  }

  KeyLog& key_log(u32 lane, u64 key_id) {
    if (key_id >= lanes_[lane].keys)
      throw std::logic_error("key id outside the workload's key space");
    return keys_[lane_state_[lane].key_base + key_id];
  }

  /// True when a store of `fp` to (lane, key) is issued and unacked.
  bool store_in_flight(u32 lane, u64 key_id, u32 fp) const {
    return std::any_of(pending_.begin(), pending_.end(),
                       [&](const Pending& p) {
                         return p.live && p.store && p.lane == lane &&
                                p.key_id == key_id && p.fp == fp;
                       });
  }

  void push(u32 lane, const Drawn& d) {
    LaneState& ls = lane_state_[lane];
    if (ls.tail - ls.head == ls.fifo.size()) {
      std::vector<Drawn> grown(std::max<size_t>(64, ls.fifo.size() * 2));
      for (u64 i = ls.head; i != ls.tail; ++i)
        grown[i & (grown.size() - 1)] = ls.fifo[i & (ls.fifo.size() - 1)];
      ls.fifo = std::move(grown);
    }
    ls.fifo[ls.tail++ & (ls.fifo.size() - 1)] = d;
  }

  /// Pop the op being issued and check that `key` is the key it drew.
  Drawn take(u32 lane, std::string_view key) {
    LaneState& ls = lane_state_[lane];
    if (ls.head == ls.tail)
      throw std::logic_error("op issued that its source never drew");
    const Drawn d = ls.fifo[ls.head++ & (ls.fifo.size() - 1)];
    u64 id = 0;
    for (size_t i = 1; i < key.size(); ++i) id = id * 10 + (u64)(key[i] - '0');
    if (key.size() != lanes_[lane].key_bytes || id != d.key_id)
      throw std::logic_error("issued key differs from the drawn key");
    return d;
  }

  u32 park(const Drawn& d, u32 lane) {
    u32 slot;
    if (free_.empty()) {
      slot = (u32)pending_.size();
      pending_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Pending& p = pending_[slot];
    p.anchor = d.anchor;
    p.key_id = d.key_id;
    p.op = d.op;
    p.lane = lane;
    p.live = true;
    return slot;
  }

  /// Record the op's latency and retire its slot.
  void retire(u32 slot) {
    Pending& p = pending_[slot];
    if (recording_) latencies_.push_back(inner_->eq().now() - p.anchor);
    p.live = false;
    free_.push_back(slot);
  }

  // The completion span covers the check too: it is harness work, not
  // the simulated layers'.
  void on_stored(u32 slot, Status s) {
    Pending& p = pending_[slot];
    Tracer::Scope span(tracer_, Tracer::kComplete, p.op);
    if (s == Status::kOk) {
      KeyLog& k = key_log(p.lane, p.key_id);
      k.last_issue = std::max(k.last_issue, p.stamp);
      std::copy_backward(k.acked.begin(), k.acked.end() - 1, k.acked.end());
      k.acked[0] = Acked{p.fp, ++stamp_};
    } else {
      fail(std::string("store failed: ") + to_string(s));
    }
    StoreDone done = std::move(p.store_done);
    retire(slot);
    done(s);
  }

  void on_retrieved(u32 slot, Status s, ValueDesc v) {
    Pending& p = pending_[slot];
    Tracer::Scope span(tracer_, Tracer::kComplete, p.op);
    if (s != Status::kOk) {
      fail(std::string("read failed: ") + to_string(s));
    } else if (v.size != lanes_[p.lane].value_bytes) {
      fail("read returned a value of the wrong size");
    } else {
      // Legal acked stores are those acked at or after the latest issue
      // among stores acked before this read (stamp); the ring is newest
      // first, so they form its prefix.
      const KeyLog& k = key_log(p.lane, p.key_id);
      const u32 fp = (u32)v.fingerprint;
      bool legal = false;
      for (const Acked& a : k.acked) {
        if (a.ack == 0 || a.ack < p.stamp) break;
        legal = legal || a.fp == fp;
      }
      if (!legal && !store_in_flight(p.lane, p.key_id, fp)) {
        if (k.acked.back().ack != 0 && k.acked.back().ack >= p.stamp)
          ++unverified_;  // legal stores may have left the ring
        else
          fail("read returned a stale or never-written value");
      }
    }
    RetrieveDone done = std::move(p.read_done);
    retire(slot);
    done(s, v);
  }

  void fail(const std::string& what) {
    if (failures_++ == 0) first_failure_ = what;
  }

  std::unique_ptr<harness::KvStack> inner_;
  std::vector<Lane> lanes_;
  std::array<int, 256> lane_of_{};
  std::vector<LaneState> lane_state_;
  std::vector<KeyLog> keys_;  // every lane's keys, lane by lane
  std::vector<Pending> pending_;
  std::vector<u32> free_;
  std::vector<TimeNs> latencies_;
  bool recording_ = false;
  u64 app_bytes_stored_ = 0;
  u64 ops_drawn_ = 0;
  u64 failures_ = 0;
  u64 unverified_ = 0;
  u32 stamp_ = 0;  // issue/ack order of stores
  std::string first_failure_;
  Tracer* tracer_ = nullptr;
};

}  // namespace e2e
