#include "kvapi/kvs_device.h"

#include <memory>
#include <string>

namespace kvsim::kvapi {

// Every closure below captures only {this, slot}, so it fits sim::Fn's
// inline buffer: once the pool has grown to the peak number of commands
// in flight, a command allocates nothing. A callback may issue commands
// and grow the pool, so records are re-indexed after every call out. The
// key handed to the FTL stays valid through that call: the FTL answers
// only through complete(), which schedules and never grows the pool.

u32 KvsDevice::start(std::string_view key, u8 nsid, u32 qid) {
  api_cpu_ns_ += cfg_.api_call_ns;
  const u32 slot = cmds_.acquire();
  Cmd& c = cmds_[slot];
  c.key.assign(key);
  c.nsid = nsid;
  c.qid = qid;
  return slot;
}

void KvsDevice::store(std::string_view key, ValueDesc value, StoreDone done,
                      u8 stream, u8 nsid, u32 qid) {
  const u32 slot = start(key, nsid, qid);
  Cmd& c = cmds_[slot];
  c.value = value;
  c.stream = stream;
  c.done = std::move(done);
  link_.submit_on(qid, key_cmds(key), key.size() + value.size, [this, slot] {
    const Cmd& c = cmds_[slot];
    ftl_.store(c.key.view(), c.value,
               [this, slot](Status s) { complete(slot, s); }, c.stream,
               c.nsid);
  });
}

void KvsDevice::retrieve(std::string_view key, RetrieveDone done, u8 nsid,
                         u32 qid) {
  const u32 slot = start(key, nsid, qid);
  cmds_[slot].got = std::move(done);
  link_.submit_on(qid, key_cmds(key), key.size(), [this, slot] {
    const Cmd& c = cmds_[slot];
    ftl_.retrieve(c.key.view(),
                  [this, slot](Status s, ValueDesc v) { complete(slot, s, v); },
                  c.nsid);
  });
}

void KvsDevice::remove(std::string_view key, StoreDone done, u8 nsid,
                       u32 qid) {
  const u32 slot = start(key, nsid, qid);
  cmds_[slot].done = std::move(done);
  link_.submit_on(qid, key_cmds(key), key.size(), [this, slot] {
    const Cmd& c = cmds_[slot];
    ftl_.remove(c.key.view(), [this, slot](Status s) { complete(slot, s); },
                c.nsid);
  });
}

void KvsDevice::exist(std::string_view key, ExistDone done, u8 nsid,
                      u32 qid) {
  const u32 slot = start(key, nsid, qid);
  cmds_[slot].answered = std::move(done);
  link_.submit_on(qid, key_cmds(key), key.size(), [this, slot] {
    const Cmd& c = cmds_[slot];
    ftl_.exist(c.key.view(),
               [this, slot](Status s, bool found) {
                 complete(slot, s, ValueDesc{}, found);
               },
               c.nsid);
  });
}

void KvsDevice::complete(u32 slot, Status s, ValueDesc v, bool found) {
  Cmd& c = cmds_[slot];
  c.st = s;
  c.value = v;
  c.found = found;
  link_.complete_on(c.qid, v.size, [this, slot] { finish(slot); });
}

void KvsDevice::finish(u32 slot) {
  Cmd& c = cmds_[slot];
  const Status st = c.st;
  const ValueDesc v = c.value;
  const bool found = c.found;
  StoreDone done = std::move(c.done);
  RetrieveDone got = std::move(c.got);
  ExistDone answered = std::move(c.answered);
  cmds_.release(slot);  // before the callback, which may issue more commands
  if (got) {
    got(st, v);
  } else if (answered) {
    answered(st, found);
  } else {
    done(st);
  }
}

void KvsDevice::delete_namespace(u8 nsid,
                                 std::function<void(u64 removed)> done) {
  // Snapshot every key of the namespace, then delete them one by one.
  auto del = std::make_unique<NsDelete>();
  del->nsid = nsid;
  del->done = std::move(done);
  for (u32 bucket : ftl_.iterator_bucket_ids_of(nsid))
    for (auto& k : ftl_.snapshot_bucket(bucket))
      del->keys.push_back(std::move(k));
  delete_next(std::move(del));
}

void KvsDevice::delete_next(std::unique_ptr<NsDelete> del) {
  if (del->next == del->keys.size()) {
    del->done(del->removed);
    return;
  }
  // `key` lives in *del, which the callback owns until the remove ends.
  const std::string& key = del->keys[del->next++];
  const u8 nsid = del->nsid;
  remove(key,
         [this, del = std::move(del)](Status s) mutable {
           if (s == Status::kOk) ++del->removed;
           delete_next(std::move(del));
         },
         nsid);
}

}  // namespace kvsim::kvapi
