#pragma once
// PersistentMedleyStore: the BasicMedleyStore façade over the txMontage
// skiplist — the one index with persistent payloads (one 64-byte PBlk per
// mapping, tagged sid+1). The hash primary maps each key to the skiplist
// node holding its payload; it lives in DRAM only and is rebuilt from the
// recovered skiplist.
//
// Failure atomicity comes from the epoch system: a committed store
// transaction tags its payloads with ONE epoch (MCNS folds the epoch cell
// into the read set, so the transaction cannot straddle an advance), and
// recovery keeps or discards whole epochs. recover_from() rebuilds the
// skiplist from the surviving payloads, then the primary by walking the
// skiplist, so the two indexes agree by construction and the invariants
// re-check (tests/test_store.cpp).
//
// The change feed is deliberately transient (DRAM MSQueue): it is a
// live-replication tap, not a WAL. After a crash its undelivered suffix
// is gone; a follower must re-sync from a recovered snapshot (range scan)
// before tailing the feed again. Persisting the feed itself is future
// work (montage/tx_queue.hpp has the payload shape a durable feed would
// use).
//
// Keys and values are uint64_t — the payload shape of the persistent
// region.

#include <span>

#include "montage/txmontage.hpp"
#include "store/basic_store.hpp"

namespace medley::store {

class PersistentMedleyStore
    : public BasicMedleyStore<std::uint64_t, std::uint64_t,
                              montage::TxMontageSkiplist> {
  using Base = BasicMedleyStore<std::uint64_t, std::uint64_t,
                                montage::TxMontageSkiplist>;

 public:
  /// The skiplist's payloads are tagged sid+1 (sid itself is no longer
  /// written). Reuse the same sid across restarts of the same store.
  PersistentMedleyStore(core::TxManager* mgr, montage::EpochSys* es,
                        std::uint64_t sid, StoreConfig cfg = {})
      : Base(mgr, &owned_secondary_, cfg),
        sid_(sid),
        owned_secondary_(mgr, es, sid + 1) {}

  std::uint64_t sid() const { return sid_; }

  /// Rebuild the skiplist from the survivors of EpochSys::recover(), then
  /// the primary from the skiplist. Call once, before any operations, on a
  /// freshly constructed store.
  void recover_from(std::span<montage::PBlk* const> payloads) {
    owned_secondary_.recover_from(payloads);
    for (const auto& [k, h] : owned_secondary_.handles_slow()) {
      primary_.insert(k, h);
    }
  }

 private:
  std::uint64_t sid_;
  montage::TxMontageSkiplist owned_secondary_;
};

}  // namespace medley::store
