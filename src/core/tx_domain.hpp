#pragma once
// TxDomain: the per-thread transaction lifecycle, factored out of TxManager.
//
// A domain owns what is fundamentally *per thread*, not per manager: the
// reusable descriptor (one status word, one read set, one write set) and
// the ThreadCtx holding a transaction's ephemera — the speculation-interval
// flag, the recent-critical-load ring, deferred cleanups/compensations,
// speculative allocations, and deferred retirements. A TxManager is now a
// thin handle over a domain that contributes only what *is* per manager:
// begin/end hooks (txMontage's epoch announcement) and statistics routing.
//
// Why the split: structures registered with different managers can then
// participate in ONE transaction — one descriptor, one commit-point CAS on
// its status word — as long as their managers share a domain. This is what
// lets ShardedMedleyStore give every shard a private TxManager (so
// single-shard traffic never touches another shard's metadata or hooks)
// while cross-shard operations still commit atomically: the MCNS protocol
// (descriptor install / validate / finalize / uninstall) never cared which
// manager a CASObj belonged to, only which descriptor was installed.
//
// Life cycle of one transaction (owner thread):
//   begin(root): new descriptor incarnation, EBR guard pinned, ctx armed,
//                root manager joined (its begin hook fires).
//   ...operations execute; OpStarter joins their managers on first touch
//      (a joined manager's begin hook fires at join, not at begin)...
//   end():      InPrep->InProg, validate reads, commit or abort, uninstall,
//               then cleanups (commit) or compensations + speculative-block
//               retirement (abort); every joined manager's end hook fires
//               with the outcome; commit/abort counters land on the ROOT
//               manager. Aborts surface as TransactionAborted.
//
// Helpers finalize foreign descriptors via Desc::try_finalize; neither the
// domain nor any manager is involved on the helper path.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/descriptor.hpp"
#include "smr/ebr.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"
#include "util/thread_registry.hpp"

namespace medley {
class ContentionManager;  // tx_exec.hpp: retry pacing / priority hooks
}

namespace medley::obs {
class TraceRing;  // obs/trace.hpp: per-thread tx-lifecycle event ring
}

namespace medley::core {

class TxManager;
class TxDomain;

enum class AbortReason : std::uint8_t {
  Conflict,    // a peer aborted us (eager contention management)
  Validation,  // commit-time read validation failed
  Capacity,    // read/write set overflow
  User,        // explicit txAbort()
};

class TransactionAborted : public std::exception {
 public:
  explicit TransactionAborted(AbortReason r) : reason_(r) {}
  AbortReason reason() const noexcept { return reason_; }
  const char* what() const noexcept override {
    switch (reason_) {
      case AbortReason::Conflict: return "transaction aborted: conflict";
      case AbortReason::Validation: return "transaction aborted: validation";
      case AbortReason::Capacity: return "transaction aborted: capacity";
      case AbortReason::User: return "transaction aborted: user";
    }
    return "transaction aborted";
  }

 private:
  AbortReason reason_;
};

/// Thrown when a transaction declared READ-ONLY attempts a write (a
/// critical nbtcCAS, or a boosted lock acquisition — anything that would
/// need the descriptor the read-only mode never published). Deliberately
/// NOT a TransactionAborted: no existing abort handler may swallow it —
/// the one legitimate catcher is TxExecutor::execute_ro, which abandons
/// the read-only attempt (unbilled) and re-runs the body as a full
/// transaction.
class ReadOnlyViolation : public std::logic_error {
 public:
  ReadOnlyViolation()
      : std::logic_error(
            "write attempted inside a read-only Medley transaction") {}
};

/// One deferred block: pointer plus type-erased deleter.
struct TxBlock {
  void* ptr;
  void (*deleter)(void*);
};

/// Flat open-addressing pointer set for per-transaction read-registration
/// dedup (Composable::addToReadSetDedup). Tuned for the scan hot path:
/// no allocation per insert (a contiguous table, grown rarely and kept
/// across transactions) and O(1) clear (a generation stamp instead of
/// touching slots). A std::unordered_set here costs one heap node per
/// link and a bucket sweep per clear — measured 2.6x slower YCSB-E.
class PtrSet {
 public:
  /// O(1): forget all entries by moving to the next generation.
  void reset() {
    gen_++;
    count_ = 0;
  }

  /// True iff p was not yet in the set this generation (and inserts it).
  bool insert(const void* p) {
    if (slots_.empty()) slots_.resize(kInitialSlots);
    if ((count_ + 1) * 2 > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(p) & mask;
    for (;;) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {  // empty (this generation)
        s.ptr = p;
        s.gen = gen_;
        count_++;
        return true;
      }
      if (s.ptr == p) return false;
      i = (i + 1) & mask;
    }
  }

  std::size_t size() const { return count_; }

 private:
  struct Slot {
    const void* ptr = nullptr;
    std::uint64_t gen = 0;  // slot live iff gen == set generation
  };
  static constexpr std::size_t kInitialSlots = 1024;  // power of two

  static std::size_t hash(const void* p) {
    return static_cast<std::size_t>(
        util::mix64(reinterpret_cast<std::uintptr_t>(p)));
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      std::size_t i = hash(s.ptr) & mask;
      while (slots_[i].gen == gen_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::uint64_t gen_ = 1;  // > 0: default slots (gen 0) always read empty
  std::size_t count_ = 0;
};

/// Per-thread transaction context. Public because CASObj<T> (a template)
/// manipulates it inline; treat as library-internal.
struct ThreadCtx {
  TxDomain* domain = nullptr;
  TxManager* mgr = nullptr;  // ROOT manager of the current transaction
  Desc* desc = nullptr;
  std::uint64_t begin_status = 0;  // incarnation at begin
  bool in_tx = false;
  bool spec_interval = false;

  // READ-ONLY transaction mode (TxDomain::begin_ro): no descriptor is
  // published and no read-set entries are recorded — reads are logged
  // locally in `ro_reads` and validated exactly once at end_ro (the TDSL
  // read-only fast path, tdsl_skiplist.hpp do_commit). While this flag is
  // set, `desc` is STALE (left over from the previous full transaction)
  // and must not be consulted.
  bool read_only = false;

  /// One logged read of the read-only mode: the raw {value, counter} pair
  /// observed. Counters are strictly monotonic, so the pair still being
  /// in place at validation proves the cell never changed in between.
  struct RORead {
    CASCell* cell;
    std::uint64_t lo, hi;
  };
  std::vector<RORead> ro_reads;

  // Contention manager of the TxExecutor call currently driving this
  // thread (null when transactions are run by hand). Set around the whole
  // execute() call — NOT cleared by begin() — so intra-attempt hooks
  // (boostLock's semantic-lock wait) see it on every attempt.
  medley::ContentionManager* cm = nullptr;

  // Trace ring of the TxExecutor call currently driving this thread (null
  // when untraced). Set alongside `cm` for the same reason: intra-attempt
  // hooks (CASObj conflict arbitration, boostLock's semantic-lock wait)
  // emit lifecycle events into the same per-thread ring the executor uses.
  medley::obs::TraceRing* trace = nullptr;

  // Managers participating in the current transaction, root first. A
  // manager joins (once) when the first operation of a structure it owns
  // runs inside the transaction; all joined end hooks fire at finish.
  std::vector<TxManager*> joined;

  // Ring of recent critical loads: cell, raw {lo,hi} observed, and the
  // value the load returned (differs from lo when the load hit our own
  // installed descriptor and returned the speculated value).
  static constexpr int kRingSize = 16;
  struct RecentLoad {
    CASCell* cell = nullptr;
    std::uint64_t raw_lo = 0, raw_hi = 0, returned = 0;
  };
  RecentLoad ring[kRingSize];
  int ring_pos = 0;

  std::vector<std::function<void()>> cleanups;
  std::vector<std::function<void()>> compensations;  // run (reversed) on abort
  std::vector<TxBlock> allocs;   // tNew'ed; deleted (via EBR) on abort
  std::vector<TxBlock> retires;  // tRetire'd; passed to EBR on commit
  std::optional<smr::EBR::Guard> guard;

  // Cells already registered through the deduplicating read-set interface
  // (Composable::addToReadSetDedup) in this transaction. Populated only by
  // iteration-heavy operations (skiplist range/scan); point transactions
  // pay exactly one generation bump at txBegin.
  PtrSet dedup_reads;

  void note_load(CASCell* cell, std::uint64_t raw_lo, std::uint64_t raw_hi,
                 std::uint64_t returned) {
    ring[ring_pos] = {cell, raw_lo, raw_hi, returned};
    ring_pos = (ring_pos + 1) % kRingSize;
  }

  const RecentLoad* find_recent(CASCell* cell, std::uint64_t returned) const {
    for (int i = 0; i < kRingSize; i++) {
      int idx = (ring_pos - 1 - i + 2 * kRingSize) % kRingSize;
      if (ring[idx].cell == cell && ring[idx].returned == returned)
        return &ring[idx];
    }
    return nullptr;
  }

  /// First dedup-tracked registration of `cell` this transaction?
  bool note_dedup_read(const CASCell* cell) {
    return dedup_reads.insert(cell);
  }
};

/// The shared transaction substrate. Every TxManager references exactly one
/// domain; managers that may appear in the same transaction must share one
/// (TxManager's default constructor makes a private domain, preserving the
/// one-manager-per-transaction behavior; ShardedMedleyStore hands all its
/// shard managers one shared domain).
class TxDomain {
 public:
  TxDomain();
  ~TxDomain();
  TxDomain(const TxDomain&) = delete;
  TxDomain& operator=(const TxDomain&) = delete;

  /// The calling thread's context if it is inside *any* domain's
  /// transaction, else nullptr. Used by CASObj to decide instrumentation.
  static ThreadCtx* active_ctx() { return tl_active_; }

  /// Optional opacity support (paper Sec. 3.1): throw now if any tracked
  /// read no longer holds, instead of waiting for commit.
  void validateReads();

  /// Conflict arbitration for the eager-resolution path (CASObj nbtcLoad /
  /// nbtcCAS meeting a foreign installed descriptor): should the calling
  /// transaction (`mine`) abort ITSELF instead of finalizing — i.e.
  /// aborting — the installed one (`other`)?
  ///
  /// True only when BOTH descriptors carry a contention-management
  /// priority (KarmaCM timestamps: smaller = older), `other` is strictly
  /// older, and `other` is still InPrep. An InProg peer is help-committed
  /// by try_finalize (productive either way), and a finished one merely
  /// needs uninstalling — yielding there would be pure loss. Unprioritized
  /// transactions keep the paper's pure eager behavior, so mixing managed
  /// and unmanaged call sites degrades gracefully instead of starving the
  /// unmanaged side.
  static bool arbitration_yields(const Desc* mine, const Desc* other) {
    const std::uint64_t op = other->priority();
    if (op == 0) return false;
    const std::uint64_t mp = mine->priority();
    if (mp == 0 || mp <= op) return false;  // unmanaged, older, or self
    return status_word::status(other->status()) == TxStatus::InPrep;
  }

  /// Is the calling thread inside a transaction of this domain?
  bool in_tx() const;

  /// This thread's descriptor (tests & internal use).
  Desc* my_desc();

  ThreadCtx* my_ctx();

 private:
  // Lifecycle entry points are reached through a TxManager (txBegin/txEnd
  // pair on the root manager) or the NBTC instrumentation — not called
  // directly by user code, which would bypass root pairing and billing.
  friend class TxManager;
  friend class Composable;
  template <typename T>
  friend class CASObj;
  friend struct OpStarter;

  /// Start a transaction rooted at `root` on the calling thread. No nesting.
  void begin(TxManager* root);

  /// Attempt to commit the calling thread's transaction; throws
  /// TransactionAborted on failure.
  void end();

  /// Start a READ-ONLY transaction rooted at `root`: the ctx is armed and
  /// the EBR guard pinned exactly as begin(), but the descriptor is never
  /// begun or published — reads log {value, counter} pairs into
  /// ThreadCtx::ro_reads instead of the descriptor's read set. No nesting.
  void begin_ro(TxManager* root);

  /// Validate-once commit of the read-only transaction: every logged pair
  /// must still be in place (counters are monotonic, so equality proves
  /// the cell never changed since its load — all intervals overlap at the
  /// moment validation starts, which is the snapshot's serialization
  /// point). Throws TransactionAborted(Validation) on a torn snapshot.
  void end_ro();

  /// Close an open read-only transaction without billing a commit or an
  /// abort: the executor's write-fallback seam (a body that turned out to
  /// write was mis-declared, not aborted). No-op when the calling thread
  /// has no open read-only transaction of this domain.
  void abandon_ro();

  /// Abort the given (active, owned-by-caller) transaction context.
  [[noreturn]] void abort(ThreadCtx* c, AbortReason r);

  /// Throw if a peer already aborted the running transaction (cheap
  /// self-status check; keeps doomed transactions from wasting work).
  static void self_abort_check(ThreadCtx* c);

  /// Enlist `mgr` in the calling thread's current transaction (idempotent;
  /// fires the manager's begin hook on first join). Throws std::logic_error
  /// if `mgr` belongs to a different domain — structures whose managers do
  /// not share a domain cannot be composed into one transaction.
  void join(ThreadCtx* c, TxManager* mgr);

  void finish_commit(ThreadCtx* c);

  /// Tear down a read-only ctx (compensations reversed, speculative
  /// allocations to EBR, end hooks fire with `committed`); bills nothing.
  void close_ro(ThreadCtx* c, bool committed);

  /// Is every pair logged by the read-only transaction still in place?
  static bool ro_log_valid(ThreadCtx* c);

  std::unique_ptr<ThreadCtx> ctxs_[util::ThreadRegistry::kMaxThreads];
  std::unique_ptr<Desc> descs_[util::ThreadRegistry::kMaxThreads];

  // constinit: the initializer is constant, so other translation units
  // access it directly, not through a TLS wrapper that first checks for
  // a dynamic initializer (an access UBSAN reported as a null load).
  static constinit thread_local ThreadCtx* tl_active_;
};

}  // namespace medley::core
