#pragma once
// The served store of the wire workloads and the ledger: the store config
// of examples/kv_service.cpp (ShardedMedleyStore, 2 shards, combining on,
// metrics on) behind ONE epoll worker, plus the feed replica the tap keeps.
//
// One worker, not two: with two workers and two connections SO_REUSEPORT
// sometimes lands both connections on one worker, which made wire-read
// throughput bimodal from run to run.

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "store/sharded_store.hpp"
#include "trace.hpp"

namespace medley::benchrec {

namespace net = medley::net;
using Key = std::uint64_t;
using Val = std::uint64_t;
using Store = medley::store::ShardedMedleyStore<Key, Val>;

/// Every stored value is key<<20 | seq, so a read proves it returned its
/// own key's value.
inline Val tag(Key k, std::uint64_t seq) { return k << 20 | (seq & 0xFFFFF); }
inline bool tag_ok(Key k, Val v) { return (v >> 20) == k; }

/// net::StoreApi decorator that times the server's calls into the store
/// while the run is in its traced phase (a pass-through otherwise). An
/// async_put's future is wrapped in a new TxFuture step, so the harvest
/// get() is timed too. Used by one epoll worker, so its counter is
/// single-threaded.
class TimedStoreApi final : public net::StoreApi {
 public:
  TimedStoreApi(net::StoreApi* inner, const std::atomic<int>* phase)
      : inner_(inner), phase_(phase) {}

  std::optional<Val> get(Key k) override {
    if (!tracing()) return inner_->get(k);
    const std::uint64_t t0 = now_ns();
    auto r = inner_->get(k);
    note(kStoreGet, t0);
    return r;
  }
  Async async_put(Key k, Val v) override {
    if (!tracing()) return inner_->async_put(k, v);
    const std::uint64_t t0 = now_ns();
    Async f = inner_->async_put(k, v);
    note(kStorePublish, t0);
    return timed_harvest(std::move(f));
  }
  Async async_del(Key k) override {
    if (!tracing()) return inner_->async_del(k);
    const std::uint64_t t0 = now_ns();
    Async f = inner_->async_del(k);
    note(kStorePublish, t0);
    return timed_harvest(std::move(f));
  }
  Val rmw_add(Key k, Val delta) override {
    if (!tracing()) return inner_->rmw_add(k, delta);
    const std::uint64_t t0 = now_ns();
    const Val r = inner_->rmw_add(k, delta);
    note(kStoreRmw, t0);
    return r;
  }
  std::vector<std::pair<Key, Val>> range(Key lo, Key hi) override {
    return inner_->range(lo, hi);
  }
  std::vector<std::pair<Key, Val>> scan(Key lo, std::size_t limit) override {
    if (!tracing()) return inner_->scan(lo, limit);
    const std::uint64_t t0 = now_ns();
    auto r = inner_->scan(lo, limit);
    note(kStoreScan, t0);
    return r;
  }
  void multi_put(const std::vector<std::pair<Key, Val>>& kvs) override {
    inner_->multi_put(kvs);
  }
  net::StatsBlob stats_blob() override { return inner_->stats_blob(); }
  std::string metrics_text() override { return inner_->metrics_text(); }

 private:
  static constexpr std::uint64_t kKeepEvery = 16;

  bool tracing() const {
    return phase_->load(std::memory_order_relaxed) == kTraced;
  }
  void note(SpanKind k, std::uint64_t t0) {
    calls_++;
    Tracer::get().record(k, t0, now_ns(), calls_, kNoParent,
                         calls_ % kKeepEvery == 0);
  }
  Async timed_harvest(Async f) {
    // std::function needs a copyable callable; the inner future is not.
    auto inner = std::make_shared<Async>(std::move(f));
    return Async([this, inner](Async& self, bool block) {
      if (!block && !inner->ready()) return false;
      const std::uint64_t t0 = now_ns();
      try {
        self.set_value(inner->get());
      } catch (...) {
        self.set_error(std::current_exception());
      }
      note(kStoreHarvest, t0);
      return true;
    });
  }

  net::StoreApi* inner_;
  const std::atomic<int>* phase_;
  std::uint64_t calls_ = 0;
};

/// One set-up of the served store: keys [0, keys) preloaded with tag(k, 0),
/// the preload's feed drained into the replica, the server started.
/// Members are declared so the server stops before what it serves dies.
struct Served {
  std::shared_ptr<obs::MetricsRegistry> registry =
      std::make_shared<obs::MetricsRegistry>();
  Store store;
  std::map<Key, Val> replica;
  net::StoreAdapter<Store> adapter;
  TimedStoreApi timed;
  net::Server server;

  Served(std::uint64_t keys, bool combining, const std::atomic<int>* phase)
      : store(2, config(combining, registry)),
        adapter(&store),
        timed(&adapter, phase),
        server(&timed, net_config(registry)) {
    std::vector<std::pair<Key, Val>> chunk;
    for (Key k = 0; k < keys; k++) {
      chunk.emplace_back(k, tag(k, 0));
      if (chunk.size() == 32 || k + 1 == keys) {
        store.multi_put(chunk);
        chunk.clear();
      }
    }
    drain_feed();
    server.start();
  }

  /// Replays every committed feed entry into the replica; returns the
  /// feed depth seen before draining.
  std::uint64_t drain_feed() {
    const std::uint64_t depth = store.feed_depth();
    for (;;) {
      const auto batch = store.poll_feed(256);
      if (batch.empty()) return depth;
      medley::store::replay_feed(batch, replica);
    }
  }

 private:
  static medley::store::StoreConfig config(
      bool combining, const std::shared_ptr<obs::MetricsRegistry>& reg) {
    medley::store::StoreConfig cfg;
    cfg.combining.enabled = combining;
    cfg.metrics = true;
    cfg.metrics_registry = reg;
    return cfg;
  }
  static net::NetConfig net_config(
      const std::shared_ptr<obs::MetricsRegistry>& reg) {
    net::NetConfig n;
    n.workers = 1;
    n.registry = reg;
    return n;
  }
};

}  // namespace medley::benchrec
