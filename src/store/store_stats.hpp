#pragma once
// StoreStats: the store's per-thread counter block (the STO exemplar's
// per-transaction perf counters, adapted to Medley's dense thread ids).
// Every top-level store operation folds its executed-transaction TxStats
// into the
// calling thread's padded slot; feed pushes/polls are counted only after
// the enclosing transaction committed, so feed_depth() is exact between
// quiescent points (and never counts an aborted attempt).
//
// Counters are relaxed atomics with a single writer (the slot's owner
// thread); aggregate() and feed_depth() may run concurrently with writers
// and see a slightly stale but tear-free view. mine() reads the calling
// thread's own slot — workload drivers use before/after deltas of it for
// exact per-thread abort accounting.
//
// Slots live in a util::PerThreadSlots block (lazily allocated, leased-tid
// indexed): repeated short-lived threads inherit prior slots and keep
// adding, so aggregate() stays exact across thread churn and the store
// never runs out of slots however many threads come and go.

#include <atomic>
#include <cstdint>

#include "core/medley.hpp"
#include "util/per_thread.hpp"
#include "util/thread_registry.hpp"

namespace medley::store {

class StoreStats {
 public:
  /// TxStats (commits/retries/aborts-by-reason, with aborts()) plus the
  /// store's feed, key-count and group-commit counters.
  struct Snapshot : TxStats {
    std::uint64_t feed_pushed = 0;
    std::uint64_t feed_polled = 0;
    std::uint64_t keys_inserted = 0;  // committed puts of an ABSENT key
    std::uint64_t keys_removed = 0;   // committed dels of a PRESENT key
    std::uint64_t combined_batches = 0;  // committed group commits
    std::uint64_t combined_ops = 0;      // logical ops they carried

    /// Committed live-key count (exact between quiescent points;
    /// saturating for the same mid-flight reason as feed_depth()). This
    /// is the partition-imbalance observable of the sharded stores: a
    /// range-partitioned shard sitting under a hot interval shows up as
    /// a runaway per-shard key_count() long before it shows up as tail
    /// latency. Counts committed traffic only — a store rebuilt by
    /// recovery (PersistentMedleyStore::recover_from) restarts from 0.
    std::uint64_t key_count() const {
      return keys_inserted >= keys_removed ? keys_inserted - keys_removed
                                           : 0;
    }

    /// Aggregation across stores (the sharded stores sum their shards'
    /// snapshots plus the cross-shard block; the YCSB driver sums rows).
    /// Overloads TxStats::operator+= so the feed counters fold too.
    using TxStats::operator+=;
    Snapshot& operator+=(const Snapshot& o) {
      TxStats::operator+=(o);
      feed_pushed += o.feed_pushed;
      feed_polled += o.feed_polled;
      keys_inserted += o.keys_inserted;
      keys_removed += o.keys_removed;
      combined_batches += o.combined_batches;
      combined_ops += o.combined_ops;
      return *this;
    }
  };

  /// Fold one committed-or-abandoned TxExecutor outcome into my slot.
  void record(const TxStats& st) {
    Slot& s = my_slot();
    add(s.commits, st.commits);
    add(s.retries, st.retries);
    add(s.conflict_aborts, st.conflict_aborts);
    add(s.validation_aborts, st.validation_aborts);
    add(s.capacity_aborts, st.capacity_aborts);
    add(s.user_aborts, st.user_aborts);
  }

  void note_feed_push(std::uint64_t n) { add(my_slot().feed_pushed, n); }
  void note_feed_poll(std::uint64_t n) { add(my_slot().feed_polled, n); }
  void note_key_insert(std::uint64_t n) { add(my_slot().keys_inserted, n); }
  void note_key_remove(std::uint64_t n) { add(my_slot().keys_removed, n); }
  /// One committed group commit (a combiner batch or an apply_batch
  /// chunk) that carried `n` logical ops.
  void note_group(std::uint64_t n) {
    Slot& s = my_slot();
    add(s.combined_batches, 1);
    add(s.combined_ops, n);
  }

  /// Sum over all thread slots.
  Snapshot aggregate() const {
    Snapshot out;
    slots_.for_each([&](const Slot& s) { fold(out, s); });
    return out;
  }

  /// The calling thread's slot only (exact: single writer).
  Snapshot mine() const {
    Snapshot out;
    if (const Slot* s = slots_.get(util::ThreadRegistry::tid())) {
      fold(out, *s);
    }
    return out;
  }

  /// Committed-but-unpolled feed entries (exact once writers quiesce;
  /// saturating, since a mid-flight poll can momentarily observe its own
  /// count before a concurrent pusher's).
  std::uint64_t feed_depth() const {
    Snapshot s = aggregate();
    return s.feed_pushed >= s.feed_polled ? s.feed_pushed - s.feed_polled
                                          : 0;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> conflict_aborts{0};
    std::atomic<std::uint64_t> validation_aborts{0};
    std::atomic<std::uint64_t> capacity_aborts{0};
    std::atomic<std::uint64_t> user_aborts{0};
    std::atomic<std::uint64_t> feed_pushed{0};
    std::atomic<std::uint64_t> feed_polled{0};
    std::atomic<std::uint64_t> keys_inserted{0};
    std::atomic<std::uint64_t> keys_removed{0};
    std::atomic<std::uint64_t> combined_batches{0};
    std::atomic<std::uint64_t> combined_ops{0};
  };

  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) {
    if (n != 0) c.store(c.load(std::memory_order_relaxed) + n,
                        std::memory_order_relaxed);
  }

  static void fold(Snapshot& out, const Slot& s) {
    TxStats t;
    t.commits = s.commits.load(std::memory_order_relaxed);
    t.retries = s.retries.load(std::memory_order_relaxed);
    t.conflict_aborts = s.conflict_aborts.load(std::memory_order_relaxed);
    t.validation_aborts =
        s.validation_aborts.load(std::memory_order_relaxed);
    t.capacity_aborts = s.capacity_aborts.load(std::memory_order_relaxed);
    t.user_aborts = s.user_aborts.load(std::memory_order_relaxed);
    out += t;
    out.feed_pushed += s.feed_pushed.load(std::memory_order_relaxed);
    out.feed_polled += s.feed_polled.load(std::memory_order_relaxed);
    out.keys_inserted += s.keys_inserted.load(std::memory_order_relaxed);
    out.keys_removed += s.keys_removed.load(std::memory_order_relaxed);
    out.combined_batches +=
        s.combined_batches.load(std::memory_order_relaxed);
    out.combined_ops += s.combined_ops.load(std::memory_order_relaxed);
  }

  Slot& my_slot() { return slots_.mine(); }

  util::PerThreadSlots<Slot> slots_;
};

}  // namespace medley::store
