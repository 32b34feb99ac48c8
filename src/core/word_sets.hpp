#pragma once
// Read set and write set of a transaction descriptor (paper Fig. 4).
//
// These differ from the paper's `map<...>` sketch in two load-bearing ways
// (both discussed in DESIGN.md §5):
//
//  1. Entries are *serial-tagged*. The owner "clears" its sets at txBegin
//     simply by bumping the descriptor serial; a helper that races with the
//     owner's next incarnation skips entries whose tag does not match the
//     status snapshot it is finalizing. Combined with the per-entry seqlock
//     below, a stale helper can never act on a newer transaction's entry —
//     this closes the descriptor-reuse race left open by the pseudocode's
//     `uninstall(status.load())`.
//
//  2. The read set is append-only rather than last-write-wins. If one
//     transaction reads the same location twice and observes two different
//     committed values, *both* entries are validated at commit and the
//     transaction aborts, as strict serializability requires (an overwrite
//     map would validate only the latest observation).
//
// Concurrency contract: only the owner writes entries; helpers read them
// concurrently. Every field is a relaxed atomic and each entry is published
// by a release-store of its serial tag; readers use an acquire/re-check
// (seqlock) pattern via `snapshot()`.

#include <atomic>
#include <cstdint>

#include "core/cas_cell.hpp"

namespace medley::core {

/// One tracked critical load: the cell, the {value, counter} pair observed.
struct ReadEntry {
  std::atomic<CASCell*> addr{nullptr};
  std::atomic<std::uint64_t> val{0};
  std::atomic<std::uint64_t> cnt{0};
  std::atomic<std::uint64_t> serial{0};  // publication tag; 0 = invalid
};

/// One installed (or about-to-install) critical CAS.
struct WriteEntry {
  std::atomic<CASCell*> addr{nullptr};
  std::atomic<std::uint64_t> old_val{0};
  std::atomic<std::uint64_t> cnt{0};  // counter the install CAS expects
  std::atomic<std::uint64_t> new_val{0};
  std::atomic<std::uint64_t> serial{0};  // publication tag; 0 = invalid
};

struct ReadSnapshot {
  CASCell* addr;
  std::uint64_t val, cnt;
};

struct WriteSnapshot {
  CASCell* addr;
  std::uint64_t old_val, cnt, new_val;
};

/// Seqlock-style consistent read of one entry for serial `ser`.
/// Returns false if the entry is torn, stale, or from another incarnation.
inline bool snapshot(const ReadEntry& e, std::uint64_t ser,
                     ReadSnapshot& out) {
  if (e.serial.load(std::memory_order_acquire) != ser) return false;
  out.addr = e.addr.load(std::memory_order_relaxed);
  out.val = e.val.load(std::memory_order_relaxed);
  out.cnt = e.cnt.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  return e.serial.load(std::memory_order_relaxed) == ser && out.addr;
}

inline bool snapshot(const WriteEntry& e, std::uint64_t ser,
                     WriteSnapshot& out) {
  if (e.serial.load(std::memory_order_acquire) != ser) return false;
  out.addr = e.addr.load(std::memory_order_relaxed);
  out.old_val = e.old_val.load(std::memory_order_relaxed);
  out.cnt = e.cnt.load(std::memory_order_relaxed);
  out.new_val = e.new_val.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  return e.serial.load(std::memory_order_relaxed) == ser && out.addr;
}

template <typename Entry, int Capacity>
class WordSet {
 public:
  static constexpr int kCapacity = Capacity;

  /// Owner: logical clear (entries of older serials become invisible).
  void reset() { count_.store(0, std::memory_order_relaxed); }

  int count() const { return count_.load(std::memory_order_acquire); }

  Entry& at(int i) { return entries_[i]; }
  const Entry& at(int i) const { return entries_[i]; }

  /// Owner: claim the next slot; returns nullptr when full (the caller
  /// aborts the transaction with a capacity-abort).
  Entry* claim() {
    const int n = count_.load(std::memory_order_relaxed);
    if (n >= Capacity) return nullptr;
    Entry* e = &entries_[n];
    // Invalidate before refilling so a racing stale helper's seqlock fails.
    // The release fence orders this store before the caller's relaxed
    // field stores (the seqlock writer's half). It pairs with snapshot()'s
    // acquire fence: a helper that reads any new field then re-reads a
    // serial no older than this 0, so its re-check fails instead of
    // accepting new fields under the old serial. (On x86 the fence only
    // constrains the compiler.)
    e->serial.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    return e;
  }

  /// Owner: publish the most recently claimed slot.
  void publish(Entry* e, std::uint64_t ser) {
    e->serial.store(ser, std::memory_order_release);
    count_.store(count_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
  }

 private:
  std::atomic<int> count_{0};
  Entry entries_[Capacity];
};

}  // namespace medley::core
