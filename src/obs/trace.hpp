#pragma once
// Per-thread fixed-capacity ring of transaction-lifecycle events.
//
// Each thread appends two-word records (TSC timestamp + packed payload) into
// its own lazily allocated ring; nothing is shared on the emit path, so a
// traced run perturbs the interleaving it is trying to observe as little as
// possible (~a dozen ns per event). Rings wrap: the newest `capacity` events
// per thread survive, and written() exposes how many were ever emitted so
// dumps can report drops.
//
// This header depends only on util/ so that core headers (TxExecutor, the
// CASObj arbitration path, boosting) can include it without cycles. Abort
// reasons travel as a raw uint8_t for the same reason; callers cast from
// AbortReason.
//
// dump() is race-free at any time (every access is atomic), but an event
// being overwritten mid-read on a wrapped ring can pair a new timestamp with
// an old payload. Dump at quiescence (or after joining workers) for exact
// post-mortem analysis; that is the intended use.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/per_thread.hpp"
#include "util/timing.hpp"

namespace medley::obs {

enum class TraceEvent : std::uint8_t {
  kBegin = 0,         // execute() entered
  kAttempt,           // aux = attempt index (0-based)
  kAbort,             // arg = AbortReason, aux = attempt index
  kCMBackoff,         // CM pacing ran after an abort; arg = reason
  kRetry,             // arg = reason of prior abort, aux = next attempt
  kCommit,            // aux = attempts used (1-based)
  kGiveUp,            // arg = last reason, aux = attempts used
  kROAttempt,         // read-only snapshot attempt
  kROCommit,          // read-only snapshot validated
  kROFallbackWrite,   // RO body wrote; re-running as a full tx
  kROFallbackValidation,  // RO validation failed; falling back to full tx
  kArbitrationYield,  // CASObj met a higher-priority descriptor and yielded
  kLockContended,     // boostLock poll failed; arg = 1 on tx path, aux = spin
  kCombineBatch,      // a group commit committed; aux = ops it carried
  kCombineHandoff,    // waiter's op completed by another thread's batch;
                      // aux = pacing rounds the waiter spent
};

inline const char* to_string(TraceEvent e) {
  switch (e) {
    case TraceEvent::kBegin: return "begin";
    case TraceEvent::kAttempt: return "attempt";
    case TraceEvent::kAbort: return "abort";
    case TraceEvent::kCMBackoff: return "cm_backoff";
    case TraceEvent::kRetry: return "retry";
    case TraceEvent::kCommit: return "commit";
    case TraceEvent::kGiveUp: return "give_up";
    case TraceEvent::kROAttempt: return "ro_attempt";
    case TraceEvent::kROCommit: return "ro_commit";
    case TraceEvent::kROFallbackWrite: return "ro_fallback_write";
    case TraceEvent::kROFallbackValidation: return "ro_fallback_validation";
    case TraceEvent::kArbitrationYield: return "arbitration_yield";
    case TraceEvent::kLockContended: return "lock_contended";
    case TraceEvent::kCombineBatch: return "combine_batch";
    case TraceEvent::kCombineHandoff: return "combiner_handoff";
  }
  return "?";
}

class TraceRing {
 public:
  /// Capacity is per thread, rounded up to a power of two (min 16).
  explicit TraceRing(std::size_t capacity = 1024) {
    std::size_t c = 16;
    while (c < capacity) c <<= 1;
    cap_ = c;
  }

  std::size_t capacity() const noexcept { return cap_; }

  /// Append an event to the calling thread's ring. Wait-free, no shared
  /// writes; ~two relaxed stores plus rdtsc.
  void emit(TraceEvent kind, std::uint8_t arg = 0,
            std::uint32_t aux = 0) noexcept {
    Ring& r = slots_.mine();
    std::atomic<std::uint64_t>* w = r.words.load(std::memory_order_relaxed);
    if (w == nullptr) {
      w = new std::atomic<std::uint64_t>[2 * cap_]();
      r.words.store(w, std::memory_order_release);
    }
    const std::uint64_t seq = r.written.load(std::memory_order_relaxed);
    const std::size_t i = (seq & (cap_ - 1)) * 2;
    w[i].store(util::tsc_now(), std::memory_order_relaxed);
    w[i + 1].store(pack(kind, arg, aux), std::memory_order_relaxed);
    r.written.store(seq + 1, std::memory_order_release);
  }

  struct Event {
    std::uint64_t tsc = 0;
    std::uint64_t seq = 0;  // per-thread emission index (0-based)
    int tid = -1;
    TraceEvent kind{};
    std::uint8_t arg = 0;
    std::uint32_t aux = 0;
  };

  /// Events ever emitted by thread `tid` (including overwritten ones).
  std::uint64_t written(int tid) const {
    const Ring* r = slots_.get(tid);
    return r ? r->written.load(std::memory_order_acquire) : 0;
  }

  /// Events of thread `tid` no longer in the ring.
  std::uint64_t dropped(int tid) const {
    const std::uint64_t n = written(tid);
    return n > cap_ ? n - cap_ : 0;
  }

  /// Merge all threads' surviving events, sorted by timestamp (ties broken
  /// by tid/seq). Exact when writers are quiescent.
  std::vector<Event> dump() const {
    std::vector<Event> out;
    const int n = util::ThreadRegistry::max_tid();
    for (int t = 0; t < n; t++) {
      const Ring* r = slots_.get(t);
      if (r == nullptr) continue;
      const std::uint64_t written = r->written.load(std::memory_order_acquire);
      const std::atomic<std::uint64_t>* w =
          r->words.load(std::memory_order_acquire);
      if (w == nullptr || written == 0) continue;
      const std::uint64_t first = written > cap_ ? written - cap_ : 0;
      for (std::uint64_t s = first; s < written; s++) {
        const std::size_t i = (s & (cap_ - 1)) * 2;
        Event e;
        e.tsc = w[i].load(std::memory_order_relaxed);
        unpack(w[i + 1].load(std::memory_order_relaxed), e);
        e.seq = s;
        e.tid = t;
        out.push_back(e);
      }
    }
    std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
      if (a.tsc != b.tsc) return a.tsc < b.tsc;
      if (a.tid != b.tid) return a.tid < b.tid;
      return a.seq < b.seq;
    });
    return out;
  }

  /// Human-readable dump, one event per line ("tsc tid seq kind arg aux").
  std::string dump_text() const {
    std::string out;
    for (const Event& e : dump()) {
      out += std::to_string(e.tsc);
      out += " t";
      out += std::to_string(e.tid);
      out += " #";
      out += std::to_string(e.seq);
      out += ' ';
      out += to_string(e.kind);
      out += " arg=";
      out += std::to_string(e.arg);
      out += " aux=";
      out += std::to_string(e.aux);
      out += '\n';
    }
    return out;
  }

 private:
  struct Ring {
    std::atomic<std::uint64_t> written{0};
    std::atomic<std::atomic<std::uint64_t>*> words{nullptr};
    ~Ring() { delete[] words.load(std::memory_order_acquire); }
  };

  static std::uint64_t pack(TraceEvent kind, std::uint8_t arg,
                            std::uint32_t aux) noexcept {
    return static_cast<std::uint64_t>(kind) |
           (static_cast<std::uint64_t>(arg) << 8) |
           (static_cast<std::uint64_t>(aux) << 32);
  }

  static void unpack(std::uint64_t word, Event& e) noexcept {
    e.kind = static_cast<TraceEvent>(word & 0xff);
    e.arg = static_cast<std::uint8_t>((word >> 8) & 0xff);
    e.aux = static_cast<std::uint32_t>(word >> 32);
  }

  std::size_t cap_;
  util::PerThreadSlots<Ring> slots_;
};

}  // namespace medley::obs
