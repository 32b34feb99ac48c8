#pragma once
// FlatCombiner: publication-list combining for group-commit batching
// (ROADMAP "flat-combining hot-spot amortization"; the technique of
// Hendler/Incze/Shavit/Tzafrir's flat combining, shaped here around the
// NBTC commit protocol instead of a sequential object).
//
// Why it exists: every Medley transaction pays one descriptor publication
// and one commit-point status CAS, and every store mutation additionally
// serializes on its shard's feed tail (one MSQueue tail CAS per op —
// bench/bench_feed_tail.cpp measures that cost directly). Under a zipf
// head, those per-transaction costs plus the abort/retry churn of
// optimistic validation dominate useful work. "On the Cost of Concurrency
// in Transactional Memory" (Ravi) formalizes the way out this header
// takes: serialize the CONFLICTING ops through one combiner and pay the
// commit protocol once per batch —
//
//   * threads publish intended ops into cache-line-padded publication
//     slots (one CAS claim + one release store each; no shared tail);
//   * whoever acquires the combiner lock drains up to max_batch pending
//     slots and executes them as ONE transaction of the caller-supplied
//     batch executor: one descriptor, one commit CAS, all feed enqueues
//     inside one commit — descriptor and commit-CAS traffic amortize N×,
//     and the batch's ops can never conflict with each other (they share
//     the transaction);
//   * losers spin briefly, then yield, watching only their OWN slot
//     (combiner "handoff": a waiter whose result was produced by another
//     thread's batch never takes the lock at all).
//
// The combiner is generic over the request/result types: the store glue
// (basic_store.hpp) instantiates it with its Mutation record and supplies a
// batch executor that runs the whole batch inside one store transaction.
// It exists for in-process callers on MANY threads (each a blocking
// submit); a producer that already holds a run of ops — the network
// server's wave — hands the run to BasicMedleyStore::apply_batch instead,
// which needs no publication list to form the batch.
//
// Liveness: a publisher that cannot find a free slot helps combine (sync
// submitters always release their slot on return, so slots cycle as long
// as batches keep executing), and a waiter whose slot is still pending
// takes the lock whenever it is free, so a stalled combiner can never
// strand a published op.
//
// This header depends only on util/ and obs/trace.hpp (itself util-only),
// mirroring tx_exec.hpp, so core and store layers can both use it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "util/align.hpp"
#include "util/backoff.hpp"
#include "util/thread_registry.hpp"

namespace medley::core {

/// Hard ceiling on ops combined into one transaction — a combiner batch or
/// one chunk of BasicMedleyStore::apply_batch. Every batched store
/// op costs a handful of descriptor write entries (its hash and skiplist
/// writes + feed enqueue), so a batch far larger than this would
/// press against Desc::kWriteCap and Capacity-abort deterministically —
/// an abort the default policy retries forever (the same spin
/// kMaxFeedDrainPerTx guards against on the drain side). Desc::kWriteCap
/// is 1024; 64 ops × ~6 writes stays comfortably under half of it.
inline constexpr std::size_t kMaxCombinedBatch = 64;

/// Ceiling on publication slots (a memory bound, not a concurrency limit:
/// slots beyond the number of publishing threads stay idle).
inline constexpr std::size_t kMaxCombinerSlots = 1024;

/// The StoreConfig::combining knob block (validated by
/// medley::store::validated(): zero slots / zero max_batch throw, over-cap
/// values clamp, config() reports the effective values).
struct CombinerConfig {
  bool enabled = false;
  /// Publication slots (≈ concurrent publishers).
  std::size_t slots = 64;
  /// Ops combined into one transaction (clamped to kMaxCombinedBatch and
  /// to `slots` — a batch can never hold more than every slot).
  std::size_t max_batch = 32;
};

template <typename Req, typename Res>
class FlatCombiner {
 public:
  /// One published operation, as the batch executor sees it: the request,
  /// the result cell it must fill, and a per-op error it may set for an op
  /// it had to skip (e.g. a user callback that threw). `err` is cleared
  /// before every batch execution so a retried transaction reports only
  /// its final outcome.
  struct Op {
    Req req{};
    Res res{};
    std::exception_ptr err;
  };

  /// A publication slot: the waiter's handle from publish to consume.
  /// Padded to a cache line so waiters spinning on their own slot never
  /// false-share with their neighbors.
  struct alignas(util::kCacheLine) Slot {
    std::atomic<std::uint32_t> state{0};
    Op op;
  };

  FlatCombiner(std::size_t nslots, std::size_t max_batch,
               obs::TraceRing* trace = nullptr)
      : nslots_(nslots), max_batch_(max_batch), trace_(trace),
        slots_(nslots) {
    batch_.reserve(max_batch_);
  }

  FlatCombiner(const FlatCombiner&) = delete;
  FlatCombiner& operator=(const FlatCombiner&) = delete;

  /// Publish `req` and wait until some combiner (possibly this thread)
  /// executed it; returns the result or rethrows the batch's error.
  /// `exec` is the batch executor: void(std::vector<Slot*>&) — run every
  /// slot's op as one transaction, filling op.res (or op.err). An
  /// exception out of `exec` fails the WHOLE batch (all-or-nothing: the
  /// transaction aborted, nothing committed) and is rethrown to every
  /// waiter.
  template <typename ExecBatch>
  Res submit(Req req, ExecBatch&& exec) {
    Slot* s = publish(std::move(req), exec);
    wait(s, exec);
    return consume(s);
  }

  // ---- the steps submit() is built from ---------------------------------

  /// Publish without waiting; nullptr when no slot is free (every slot
  /// claimed by a concurrent publisher). Never blocks. `req` is moved
  /// from ONLY on success: a nullptr return leaves the caller's request
  /// untouched, so the blocking publish loop retries the original.
  Slot* try_publish(Req&& req) {
    Slot* s = try_claim();
    if (s == nullptr) return nullptr;
    s->op.req = std::move(req);
    s->state.store(kPending, std::memory_order_release);
    return s;
  }

  /// Block (helping: become the combiner whenever the lock is free) until
  /// `s` is done.
  template <typename ExecBatch>
  void wait(Slot* s, ExecBatch&& exec) {
    std::uint64_t spins = 0;
    bool combined_myself = false;
    for (;;) {
      const std::uint32_t st = s->state.load(std::memory_order_acquire);
      if (st == kDone) {
        // Another thread's batch carried our op over the line: the
        // combiner handed us a finished result without us ever taking
        // the lock. aux = how many pacing rounds we waited for it.
        if (!combined_myself && trace_ != nullptr) {
          trace_->emit(obs::TraceEvent::kCombineHandoff, 0,
                       static_cast<std::uint32_t>(spins));
        }
        return;
      }
      if (try_lock()) {
        if (s->state.load(std::memory_order_acquire) != kDone) {
          combine(s, exec);
          combined_myself = true;
        }
        unlock();
        continue;  // our slot is kDone now (combine always includes it)
      }
      pace(spins++);
    }
  }

  /// Take the result of a done slot, free it, rethrow its error.
  Res consume(Slot* s) {
    std::exception_ptr err = std::move(s->op.err);
    s->op.err = nullptr;
    Res out = std::move(s->op.res);
    s->op.res = Res{};
    s->op.req = Req{};
    s->state.store(kFree, std::memory_order_release);
    if (err) std::rethrow_exception(err);
    return out;
  }

 private:
  enum : std::uint32_t { kFree = 0, kClaimed, kPending, kDone };

  /// Publish with a blocking claim: scan from a tid-derived start; if every
  /// slot is taken, help drain (sync waiters free slots on return) and
  /// rescan. Safe to loop on try_publish: a failed attempt never moves
  /// from `req`, so every retry publishes the original request.
  template <typename ExecBatch>
  Slot* publish(Req req, ExecBatch&& exec) {
    for (;;) {
      if (Slot* s = try_publish(std::move(req))) return s;
      // All slots busy: make progress for whoever holds them.
      if (try_lock()) {
        combine(nullptr, exec);
        unlock();
      } else {
        std::this_thread::yield();
      }
    }
  }

  Slot* try_claim() {
    const std::size_t start =
        static_cast<std::size_t>(util::ThreadRegistry::tid());
    for (std::size_t i = 0; i < nslots_; i++) {
      Slot& s = slots_[(start + i) % nslots_];
      std::uint32_t expect = kFree;
      if (s.state.compare_exchange_strong(expect, kClaimed,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        return &s;
      }
    }
    return nullptr;
  }

  bool try_lock() {
    return lock_->load(std::memory_order_relaxed) == 0 &&
           lock_->exchange(1, std::memory_order_acquire) == 0;
  }
  void unlock() { lock_->store(0, std::memory_order_release); }

  /// Lock-holding drain: gather up to max_batch pending ops (always
  /// including `mine`, when given and pending), run them through `exec` as
  /// one transaction, post results, and keep draining while ops keep
  /// arriving (classic sticky flat combining: maximum amortization).
  template <typename ExecBatch>
  void combine(Slot* mine, ExecBatch&& exec) {
    for (;;) {
      batch_.clear();
      if (mine != nullptr &&
          mine->state.load(std::memory_order_acquire) == kPending) {
        batch_.push_back(mine);
      }
      for (std::size_t i = 0; i < nslots_ && batch_.size() < max_batch_;
           i++) {
        Slot& s = slots_[i];
        if (&s == mine) continue;
        if (s.state.load(std::memory_order_acquire) == kPending) {
          batch_.push_back(&s);
        }
      }
      if (batch_.empty()) return;
      std::exception_ptr batch_err;
      try {
        for (Slot* s : batch_) s->op.err = nullptr;
        exec(batch_);
      } catch (...) {
        // The batch transaction did not commit: every op failed together
        // (all-or-nothing), and every waiter learns why.
        batch_err = std::current_exception();
      }
      for (Slot* s : batch_) {
        if (batch_err) s->op.err = batch_err;
        s->state.store(kDone, std::memory_order_release);
      }
      mine = nullptr;  // mine is done after the first round
    }
  }

  /// Waiter pacing: short escalating spin, then yield — the same
  /// oversubscription discipline as the contention managers (on a box
  /// with fewer cores than threads the combiner cannot run unless the
  /// waiters give up their quantum).
  static void pace(std::uint64_t spins) {
    if (spins >= 6) {
      std::this_thread::yield();
      return;
    }
    const std::uint64_t pauses = std::uint64_t{4} << spins;  // 4..128
    for (std::uint64_t i = 0; i < pauses; i++) util::cpu_relax();
  }

  const std::size_t nslots_;
  const std::size_t max_batch_;
  obs::TraceRing* trace_;
  util::Padded<std::atomic<std::uint32_t>> lock_{};
  std::vector<Slot> slots_;
  std::vector<Slot*> batch_;  // combiner-lock-protected scratch
};

}  // namespace medley::core
