#pragma once
// txMontage FIFO queue (paper Sec. 4.2: "The payloads of a queue are
// ⟨serial number, item⟩ pairs"). The transient index is the NBTC Michael
// & Scott queue holding payload pointers; each enqueue allocates a
// payload stamped with a monotonically increasing serial, each dequeue
// retires one. Recovery collects the surviving payloads and replays them
// in serial order.
//
// Serial numbers are drawn from an atomic counter at operation start, so
// under concurrent enqueues the serial order can differ from the
// linearization order by bounded local reorderings (the counter draw and
// the linearizing link are separate instructions). nbMontage's queue has
// the same structure; a recovered queue is FIFO with respect to serial
// draws. Transactional enqueues that abort leave serial gaps, which is
// harmless.

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <vector>

#include "ds/ms_queue.hpp"
#include "montage/epoch_sys.hpp"

namespace medley::montage {

class TxMontageQueue {
 public:
  TxMontageQueue(core::TxManager* mgr, EpochSys* es, std::uint64_t sid)
      : es_(es), sid_(sid), q_(mgr) {}

  void enqueue(std::uint64_t v) {
    EpochSys::OpGuard g(es_);
    const std::uint64_t serial =
        serial_.fetch_add(1, std::memory_order_acq_rel);
    PBlk* payload = es_->alloc_payload(sid_, serial, v);
    if (payload == nullptr) {
      // See TxMontageMap::alloc: transient under epoch-deferred frees.
      if (auto* ctx = core::TxManager::active_ctx()) {
        ctx->mgr->txAbortCapacity();
      }
      throw std::runtime_error("txMontage: persistent region exhausted");
    }
    q_.enqueue(payload);
  }

  std::optional<std::uint64_t> dequeue() {
    EpochSys::OpGuard g(es_);
    auto payload = q_.dequeue();
    if (!payload) return std::nullopt;
    const std::uint64_t v = (*payload)->val;
    es_->retire_payload(*payload);
    return v;
  }

  bool empty() { return q_.empty(); }
  std::size_t size_slow() { return q_.size_slow(); }

  /// Rebuild from recovered payloads: this queue's survivors, re-enqueued
  /// in serial order. Call once, quiescent, before any operations.
  void recover_from(std::span<PBlk* const> payloads) {
    std::vector<PBlk*> mine;
    for (PBlk* b : payloads) {
      if (b->owner_sid.load(std::memory_order_relaxed) == sid_) {
        mine.push_back(b);
      }
    }
    std::sort(mine.begin(), mine.end(), [](const PBlk* a, const PBlk* b) {
      return a->key < b->key;  // key field holds the serial
    });
    for (PBlk* b : mine) {
      q_.enqueue(b);
      serial_.store(std::max(serial_.load(std::memory_order_relaxed),
                             b->key + 1),
                    std::memory_order_relaxed);
    }
  }

 private:
  EpochSys* es_;
  std::uint64_t sid_;
  ds::MSQueue<PBlk*> q_;
  std::atomic<std::uint64_t> serial_{1};
};

}  // namespace medley::montage
