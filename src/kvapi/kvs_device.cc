#include "kvapi/kvs_device.h"

#include <memory>
#include <string>

namespace kvsim::kvapi {

void KvsDevice::store(std::string_view key, ValueDesc value, StoreDone done,
                      u8 stream, u8 nsid, u32 qid) {
  api_cpu_ns_ += cfg_.api_call_ns;
  link_.submit_on(qid, key_cmds(key), key.size() + value.size,
                  [this, k = std::string(key), value, stream, nsid, qid,
                   done = std::move(done)]() mutable {
                    ftl_.store(
                        k, value,
                        [this, qid, done = std::move(done)](Status s) mutable {
                          link_.complete_on(qid, 0,
                                            [s, done = std::move(done)]() mutable { done(s); });
                        },
                        stream, nsid);
                  });
}

void KvsDevice::retrieve(std::string_view key, RetrieveDone done, u8 nsid,
                         u32 qid) {
  api_cpu_ns_ += cfg_.api_call_ns;
  link_.submit_on(qid, key_cmds(key), key.size(),
                  [this, k = std::string(key), nsid, qid,
                   done = std::move(done)]() mutable {
                    ftl_.retrieve(
                        k,
                        [this, qid, done = std::move(done)](Status s,
                                                            ValueDesc v) mutable {
                          link_.complete_on(qid, v.size,
                                            [s, v, done = std::move(done)]() mutable {
                                              done(s, v);
                                            });
                        },
                        nsid);
                  });
}

void KvsDevice::remove(std::string_view key, StoreDone done, u8 nsid,
                       u32 qid) {
  api_cpu_ns_ += cfg_.api_call_ns;
  link_.submit_on(qid, key_cmds(key), key.size(),
                  [this, k = std::string(key), nsid, qid,
                   done = std::move(done)]() mutable {
                    ftl_.remove(
                        k,
                        [this, qid, done = std::move(done)](Status s) mutable {
                          link_.complete_on(qid, 0,
                                            [s, done = std::move(done)]() mutable { done(s); });
                        },
                        nsid);
                  });
}

void KvsDevice::exist(std::string_view key, ExistDone done, u8 nsid) {
  api_cpu_ns_ += cfg_.api_call_ns;
  link_.submit(key_cmds(key), key.size(),
               [this, k = std::string(key), nsid, done = std::move(done)]() mutable {
                 ftl_.exist(
                     k,
                     [this, done = std::move(done)](Status s,
                                                    bool found) mutable {
                       link_.complete(0,
                                      [s, found, done = std::move(done)]() mutable {
                                        done(s, found);
                                      });
                     },
                     nsid);
               });
}

void KvsDevice::delete_namespace(u8 nsid,
                                 std::function<void(u64 removed)> done) {
  // Snapshot every key of the namespace, then delete them one by one.
  auto keys = std::make_shared<std::vector<std::string>>();
  for (u32 bucket : ftl_.iterator_bucket_ids_of(nsid))
    for (auto& k : ftl_.snapshot_bucket(bucket))
      keys->push_back(std::move(k));
  auto removed = std::make_shared<u64>(0);
  auto idx = std::make_shared<size_t>(0);
  auto step = std::make_shared<std::function<void()>>();
  // Self-capture must be weak or the closure keeps itself alive forever;
  // each pending remove callback holds the strong reference instead.
  *step = [this, nsid, keys, removed, idx,
           wstep = std::weak_ptr<std::function<void()>>(step),
           done = std::move(done)]() mutable {
    if (*idx >= keys->size()) {
      done(*removed);
      return;
    }
    const std::string key = (*keys)[(*idx)++];
    remove(key,
           [removed, step = wstep.lock()](Status s) {
             if (s == Status::kOk) ++*removed;
             (*step)();
           },
           nsid);
  };
  (*step)();
}

}  // namespace kvsim::kvapi
