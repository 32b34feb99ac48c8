#pragma once
// Change-feed records for MedleyStore (the seed of replication / WAL
// shipping). Every committed mutating transaction of the store enqueues
// exactly one FeedEntry onto an MSQueue *inside the same transaction*, so
// the queue's FIFO order IS the store's serialization order: draining the
// feed and replaying it over an empty map reproduces the store's key ->
// value mapping exactly (tests/test_store.cpp checks this). A transaction
// that aborts enqueues nothing — the feed never shows phantom mutations.
//
// Consumers drain with poll_feed(max_entries), which returns "up to"
// max_entries: one transaction's drain is clamped to
// StoreConfig::feed_drain_per_tx, itself capped by the descriptor-derived
// kMaxFeedDrainPerTx (basic_store.hpp explains the Capacity-abort spin an
// unclamped deep drain would cause). Drain loops simply call again until
// empty.

#include <cstdint>
#include <map>
#include <vector>

namespace medley::store {

enum class FeedOp : std::uint8_t {
  Put,  // key now maps to val (insert or overwrite)
  Del,  // key removed (val is default-constructed filler)
};

template <typename K, typename V>
struct FeedEntry {
  FeedOp op = FeedOp::Put;
  K key{};
  V val{};
  // Global sequence stamp, drawn from the store's sequencer inside the
  // enqueuing transaction. Within one feed queue, FIFO position — not the
  // stamp — is the authoritative serialization order (a transaction can in
  // principle draw its stamp, stall, and commit after a later-stamped
  // peer); across the queues of a sharded store, the stamp is the merge
  // heuristic that interleaves independent shards near commit order. The
  // sharded merge therefore pops queue HEADS by smallest stamp and never
  // reorders within a queue, so per-key (= per-shard) order is exact.
  std::uint64_t seq = 0;
};

/// Replay a drained feed over a map (tests / recovery of a follower).
template <typename K, typename V>
void replay_feed(const std::vector<FeedEntry<K, V>>& entries,
                 std::map<K, V>& into) {
  for (const auto& e : entries) {
    if (e.op == FeedOp::Put) {
      into[e.key] = e.val;
    } else {
      into.erase(e.key);
    }
  }
}

}  // namespace medley::store
