#pragma once
// txMontage data structures (paper Sec. 4.4): Medley structures whose
// semantically significant data ("payloads") live in the persistent
// region while the structure itself — the index — stays in DRAM and is
// rebuilt on recovery. A transaction's payloads are all tagged with the
// transaction's epoch; MCNS commit validation of the folded epoch cell
// guarantees the transaction linearizes in that epoch, so an epoch is
// recovered or lost as a unit: failure atomicity and durability "almost
// for free".
//
// The map's payload is a {key, value} pair (one PBlk per mapping entry);
// the DRAM index maps key -> PBlk*. Values are immutable per payload —
// an update allocates a fresh payload and retires the old one, exactly
// the nbMontage payload discipline.

#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ds/fraser_skiplist.hpp"
#include "ds/michael_hashtable.hpp"
#include "montage/epoch_sys.hpp"

namespace medley::montage {

/// Generic persistent map wrapper: `Index` is any Medley map from
/// uint64_t keys to PBlk* values (Michael hash table, Fraser skiplist).
template <typename Index>
class TxMontageMap {
 public:
  template <typename... IndexArgs>
  TxMontageMap(core::TxManager* mgr, EpochSys* es, std::uint64_t sid,
               IndexArgs&&... index_args)
      : es_(es),
        sid_(sid),
        index_(mgr, std::forward<IndexArgs>(index_args)...) {}

  std::optional<std::uint64_t> get(std::uint64_t k) {
    EpochSys::OpGuard g(es_);
    auto blk = index_.get(k);
    if (!blk) return std::nullopt;
    return (*blk)->val;
  }

  /// Existence-only probe: the index's own contains never loads the
  /// payload block, so no persistent value is materialized just to be
  /// dropped.
  bool contains(std::uint64_t k) {
    EpochSys::OpGuard g(es_);
    return index_.contains(k);
  }

  bool insert(std::uint64_t k, std::uint64_t v) {
    EpochSys::OpGuard g(es_);
    PBlk* payload = alloc(k, v);
    if (index_.insert(k, payload)) return true;
    es_->cancel_payload(payload);
    return false;
  }

  std::optional<std::uint64_t> put(std::uint64_t k, std::uint64_t v) {
    EpochSys::OpGuard g(es_);
    PBlk* payload = alloc(k, v);
    std::optional<PBlk*> old;
    try {
      old = index_.put(k, payload);
    } catch (const std::logic_error&) {
      // The index refused the call (the skiplist's put needs an open
      // transaction): the payload must not persist as if committed.
      es_->cancel_payload(payload);
      throw;
    }
    if (!old) return std::nullopt;
    return release(*old);
  }

  std::optional<std::uint64_t> remove(std::uint64_t k) {
    EpochSys::OpGuard g(es_);
    auto old = index_.remove(k);
    if (!old) return std::nullopt;
    return release(*old);
  }

  /// Ordered queries — only instantiable when Index is an ordered map
  /// (the Fraser skiplist). The index yields {key, PBlk*}; payloads are
  /// immutable and EBR-protected for the whole operation (OpGuard), so
  /// dereferencing blk->val after the index traversal is safe.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> range(
      std::uint64_t lo, std::uint64_t hi) {
    EpochSys::OpGuard g(es_);
    return resolve(index_.range(lo, hi));
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> scan(
      std::uint64_t lo, std::size_t limit) {
    EpochSys::OpGuard g(es_);
    return resolve(index_.scan(lo, limit));
  }

  /// Rebuild the DRAM index from recovered payloads (call once, before
  /// any operations, with the survivors of EpochSys::recover()).
  void recover_from(std::span<PBlk* const> payloads) {
    for (PBlk* b : payloads) {
      if (b->owner_sid.load(std::memory_order_relaxed) != sid_) continue;
      index_.insert(b->key, b);
    }
  }

  std::size_t size_slow() { return index_.size_slow(); }

  Index& index() { return index_; }

 protected:
  static std::vector<std::pair<std::uint64_t, std::uint64_t>> resolve(
      const std::vector<std::pair<std::uint64_t, PBlk*>>& raw) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    out.reserve(raw.size());
    for (const auto& [k, blk] : raw) out.emplace_back(k, blk->val);
    return out;
  }

  PBlk* alloc(std::uint64_t k, std::uint64_t v) {
    PBlk* payload = es_->alloc_payload(sid_, k, v);
    if (payload == nullptr) {
      // Exhaustion is usually transient: retired payloads become free at
      // the next epoch advance. Inside a transaction, surface it as a
      // retryable Capacity abort; outside, the region is genuinely full.
      if (auto* ctx = core::TxManager::active_ctx()) {
        ctx->mgr->txAbortCapacity();
      }
      throw std::runtime_error("txMontage: persistent region exhausted");
    }
    return payload;
  }

  /// A payload the index no longer holds: its value, and its retirement.
  std::uint64_t release(PBlk* old) {
    const std::uint64_t val = old->val;
    es_->retire_payload(old);
    return val;
  }

  EpochSys* es_;
  std::uint64_t sid_;
  Index index_;
};

using TxMontageHashTable =
    TxMontageMap<ds::MichaelHashTable<std::uint64_t, PBlk*>>;

/// The skiplist-indexed map, plus the skiplist's node-handle ops
/// (ds/fraser_skiplist.hpp): PersistentMedleyStore's DRAM hash primary
/// maps each key to the node holding that key's payload. The handle ops
/// allocate, cancel and retire payloads the way insert/put/remove do.
class TxMontageSkiplist
    : public TxMontageMap<ds::FraserSkiplist<std::uint64_t, PBlk*>> {
 public:
  using TxMontageMap::TxMontageMap;
  using Handle = ds::FraserSkiplist<std::uint64_t, PBlk*>::Handle;

  std::pair<Handle, bool> insert_handle(std::uint64_t k, std::uint64_t v) {
    EpochSys::OpGuard g(es_);
    PBlk* payload = alloc(k, v);
    const auto res = index_.insert_handle(k, payload);
    if (!res.second) es_->cancel_payload(payload);
    return res;
  }

  std::uint64_t value_at(Handle h) {
    EpochSys::OpGuard g(es_);
    return index_.value_at(h)->val;
  }

  std::uint64_t put_at(Handle h, std::uint64_t v) {
    EpochSys::OpGuard g(es_);
    PBlk* payload = alloc(index_.key_of(h), v);
    PBlk* old;
    try {
      old = index_.put_at(h, payload);
    } catch (const std::logic_error&) {
      es_->cancel_payload(payload);  // refused outside a transaction, as put
      throw;
    }
    return release(old);
  }

  std::uint64_t remove_at(Handle h) {
    EpochSys::OpGuard g(es_);
    return release(index_.remove_at(h));
  }

  std::vector<std::pair<std::uint64_t, Handle>> handles_slow() {
    return index_.handles_slow();
  }
};

}  // namespace medley::montage
