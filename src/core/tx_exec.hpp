#pragma once
// TxExecutor: first-class transaction execution with pluggable contention
// management.
//
// The NBTC commit protocol (descriptor.hpp) fixes *what* a transaction does
// at its commit-point CAS; it deliberately says nothing about *how hard to
// retry* when an attempt aborts. Kuznetsov & Ravi ("Why Transactional
// Memory Should Not Be Obstruction-Free") make the case that progress under
// contention must come from an explicit contention-management layer layered
// over an obstruction-free core — exactly the split implemented here:
//
//   TxPolicy           which abort reasons retry, how many attempts, and
//                      WHICH ContentionManager paces the retries;
//   ContentionManager  hooks around each attempt: pacing after an abort,
//                      priority stamping for conflict arbitration, and the
//                      wait loop of boosted semantic locks (boosting.hpp);
//   TxExecutor         the ONE retry loop in the codebase. Runs a body as
//                      transactions of a TxManager until the policy says
//                      stop, and returns a TxResult instead of looping
//                      forever or leaking TransactionAborted.
//
// Contention managers provided:
//   NoOpCM        immediate retry — the historical run_tx behavior and the
//                 paper's pure eager contention management;
//   ExpBackoffCM  bounded exponential backoff between attempts (yields
//                 when saturated, and immediately for Capacity aborts,
//                 which wait on an external resource such as a Montage
//                 epoch advance — spinning cannot free it);
//   KarmaCM       timestamp priority: the first attempt of an execute()
//                 call draws a monotone timestamp, kept across its retries
//                 (age accumulates — the "karma"), and publishes it on the
//                 thread's Desc. The conflict arbitration in CASObj
//                 (TxDomain::arbitration_yields) then lets a younger
//                 transaction abort ITSELF instead of the older InPrep
//                 transaction it collided with, so old transactions are
//                 never starved by a stream of young ones. Plus backoff.
//
// All three are stateless per call or use only atomics: one instance may be
// shared by every thread (and every shard) of a store.
//
// A TxExecutor is immutable after construction and safe to share across
// threads. execute() must be called OUTSIDE any open transaction (callers
// that flat-nest check in_tx() first, as the stores do).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/descriptor.hpp"
#include "core/tx_domain.hpp"
#include "core/tx_manager.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/timing.hpp"

namespace medley {

using core::AbortReason;

/// Outcome accounting of one executed transaction: whether it committed,
/// how many aborted attempts it burned (split by reason), and how many of
/// those were retried. Aggregates with += (MedleyStore and the workload
/// drivers sum these into their counter blocks).
struct TxStats {
  std::uint64_t commits = 0;  // 0 or 1 per execute() call
  std::uint64_t retries = 0;  // aborted attempts that were re-run
  std::uint64_t conflict_aborts = 0;
  std::uint64_t validation_aborts = 0;
  std::uint64_t capacity_aborts = 0;
  std::uint64_t user_aborts = 0;

  std::uint64_t aborts() const {
    return conflict_aborts + validation_aborts + capacity_aborts +
           user_aborts;
  }

  TxStats& operator+=(const TxStats& o) {
    commits += o.commits;
    retries += o.retries;
    conflict_aborts += o.conflict_aborts;
    validation_aborts += o.validation_aborts;
    capacity_aborts += o.capacity_aborts;
    user_aborts += o.user_aborts;
    return *this;
  }
};

/// Hooks a TxExecutor drives around every transaction attempt. Implement
/// to control pacing (onAbort), priority (onAttemptStart / onFinish via
/// Desc::set_priority), and boosted-lock waits (onLockContended). Methods
/// may run concurrently on different threads — keep state atomic or
/// per-Desc.
class ContentionManager {
 public:
  virtual ~ContentionManager() = default;

  virtual const char* name() const = 0;

  /// After txBegin of attempt `attempt` (0-based) of one execute() call.
  virtual void onAttemptStart(core::Desc& d, std::uint64_t attempt) {
    (void)d;
    (void)attempt;
  }

  /// After attempt `attempt` aborted for `r`, before the retry decision.
  /// This is where inter-attempt pacing (backoff) lives.
  virtual void onAbort(core::Desc& d, core::AbortReason r,
                       std::uint64_t attempt) {
    (void)d;
    (void)r;
    (void)attempt;
  }

  /// Exactly once per execute() call, when it resolves (committed or gave
  /// up). Implementations that stamped a priority clear it here.
  virtual void onFinish(core::Desc& d, bool committed) {
    (void)d;
    (void)committed;
  }

  /// Called by a boosted semantic-lock wait (boosting.hpp boostLock) each
  /// time an acquisition poll fails; `spin` counts polls within this wait.
  /// Default: bounded exponential pacing, yielding once saturated so
  /// oversubscribed runs (TSAN on one core) let the lock holder run —
  /// the discipline whose absence made the abort->retry storm a livelock.
  virtual void onLockContended(core::Desc& d, std::uint64_t spin) {
    (void)d;
    if (spin >= 8) {
      std::this_thread::yield();
      return;
    }
    const std::uint64_t pauses = std::uint64_t{4} << spin;  // 4..512
    for (std::uint64_t i = 0; i < pauses; i++) util::cpu_relax();
  }
};

/// Immediate retry: pure eager contention management (obstruction-free but
/// livelock-prone under symmetric contention; the paper's default).
class NoOpCM final : public ContentionManager {
 public:
  const char* name() const override { return "NoOp"; }
};

/// Bounded exponential backoff between attempts. Stateless: the pause
/// budget derives from the attempt index, so one instance serves any
/// number of threads.
class ExpBackoffCM : public ContentionManager {
 public:
  explicit ExpBackoffCM(std::uint32_t min_pauses = 4,
                        std::uint32_t max_pauses = 1024)
      : min_(min_pauses), max_(max_pauses) {}

  const char* name() const override { return "ExpBackoff"; }

  void onAbort(core::Desc& d, core::AbortReason r,
               std::uint64_t attempt) override {
    (void)d;
    if (r == core::AbortReason::Capacity) {
      // Capacity waits on an external resource (e.g. the Montage epoch
      // advancer freeing retired payloads); spinning cannot free it.
      std::this_thread::yield();
      return;
    }
    const std::uint64_t pauses =
        attempt >= 16 ? max_
                      : std::min<std::uint64_t>(
                            max_, std::uint64_t{min_} << attempt);
    if (pauses >= max_) std::this_thread::yield();
    for (std::uint64_t i = 0; i < pauses; i++) util::cpu_relax();
  }

 private:
  std::uint32_t min_, max_;
};

/// Timestamp-priority contention management (Karma family): the first
/// attempt of an execute() call draws a monotone timestamp and publishes
/// it on the thread's descriptor; retries KEEP it, so a transaction's
/// priority grows with the work it has lost. CASObj's conflict path
/// (TxDomain::arbitration_yields) consults these priorities and makes the
/// younger of two prioritized transactions abort itself rather than the
/// older, still-preparing one — older transactions win. Inherits
/// ExpBackoffCM's pacing so the losing side also backs off.
class KarmaCM final : public ExpBackoffCM {
 public:
  using ExpBackoffCM::ExpBackoffCM;

  const char* name() const override { return "Karma"; }

  void onAttemptStart(core::Desc& d, std::uint64_t attempt) override {
    // Only the first attempt draws a stamp: a retry inherits its age.
    if (attempt == 0) {
      d.set_priority(clock_.fetch_add(1, std::memory_order_relaxed) + 1);
    }
  }

  void onFinish(core::Desc& d, bool committed) override {
    (void)committed;
    d.set_priority(0);  // descriptor is reused by unmanaged transactions
  }

 private:
  std::atomic<std::uint64_t> clock_{0};
};

/// How a TxExecutor reacts to aborted attempts. Default-constructed policy
/// reproduces the historical run_tx contract exactly: retry transient
/// reasons (conflict / validation / capacity) without bound and
/// immediately, stop on the first user abort.
struct TxPolicy {
  /// Total attempt budget; 0 = unbounded. When the budget is exhausted the
  /// executor returns a non-committed TxResult (it never throws for this).
  std::uint64_t max_attempts = 0;

  // Per-reason retry rules.
  bool retry_conflict = true;
  bool retry_validation = true;
  bool retry_capacity = true;
  bool retry_user = false;

  /// Declare bodies read-only: execute() then runs one validation-free
  /// snapshot attempt first (execute_ro — no descriptor publication, no
  /// read-set tracking, one validation at the end) and falls back
  /// transparently to full transactions when the snapshot is torn or the
  /// body turns out to write. Meant for dedicated read executors (the
  /// stores build one from StoreConfig::read_only_reads); a store-wide
  /// policy with this flag would pay a wasted snapshot attempt on every
  /// mutation.
  bool read_only = false;

  /// Pacing/priority hooks; null = NoOpCM (immediate retry).
  std::shared_ptr<ContentionManager> cm;

  // ---- Observability (obs/) — all optional, all non-owning. The caller
  // guarantees the instruments outlive every execute() call under this
  // policy (the stores own them via their MetricsRegistry / TraceRing and
  // share one executor per store, so this holds by construction).

  /// End-to-end latency of each execute()/execute_ro() call, recorded in
  /// nanoseconds (TSC-sampled, scaled by util::tsc_ns_per_tick()).
  obs::Histogram* latency_hist = nullptr;

  /// Attempts consumed per call (1 = first-try commit). Read-only snapshot
  /// attempts count; abandoned RO attempts (mis-declared writers) do not,
  /// mirroring the TxStats billing rules.
  obs::Histogram* attempts_hist = nullptr;

  /// Tx-lifecycle event ring (begin / attempt / abort / retry / commit /
  /// RO fallbacks / CM backoff / arbitration yields / boostLock waits).
  /// Published on the ThreadCtx around every attempt, exactly like `cm`.
  obs::TraceRing* trace = nullptr;

  /// Record latency/attempts histogram samples for 1 in 2^obs_sample_shift
  /// calls (0 = every call). The TSC read pair alone costs ~20ns — more
  /// than 10% of a fast store op — so serving deployments sample (the
  /// stores default to 1/64 via StoreConfig::metrics_sample_shift) while
  /// benches recording exact tails keep 0. Quantiles remain unbiased (the
  /// per-thread call counter has no correlation with latency); counters
  /// and TxStats are never sampled, and trace emits stay exact.
  std::uint8_t obs_sample_shift = 0;

  bool retries(core::AbortReason r) const {
    switch (r) {
      case core::AbortReason::Conflict: return retry_conflict;
      case core::AbortReason::Validation: return retry_validation;
      case core::AbortReason::Capacity: return retry_capacity;
      case core::AbortReason::User: return retry_user;
    }
    return false;
  }

  /// Policy with a contention manager and otherwise default rules.
  static TxPolicy with(std::shared_ptr<ContentionManager> manager) {
    TxPolicy p;
    p.cm = std::move(manager);
    return p;
  }

  /// Policy with a bounded attempt budget and otherwise default rules.
  static TxPolicy bounded(std::uint64_t attempts,
                          std::shared_ptr<ContentionManager> manager = {}) {
    TxPolicy p;
    p.max_attempts = attempts;
    p.cm = std::move(manager);
    return p;
  }
};

/// How an execute_ro() snapshot attempt fell back to a full transaction
/// (set on the TxResult so stores can count fallback rates without another
/// clock read): the body turned out to write, or the one-shot snapshot
/// validation failed.
enum class ROFallback : std::uint8_t { kWrite, kValidation };

/// Outcome of one TxExecutor::execute call: the body's return value (iff
/// the transaction committed), the attempt accounting, and — when it did
/// not commit — the terminal abort reason the policy declined to retry.
template <typename T>
struct TxResult {
  std::optional<T> value;  // engaged iff committed()
  TxStats stats;
  std::optional<core::AbortReason> terminal;
  std::optional<ROFallback> ro_fallback;  // execute_ro calls only

  bool committed() const { return stats.commits != 0; }
  explicit operator bool() const { return committed(); }
};

template <>
struct TxResult<void> {
  TxStats stats;
  std::optional<core::AbortReason> terminal;
  std::optional<ROFallback> ro_fallback;  // execute_ro calls only

  bool committed() const { return stats.commits != 0; }
  explicit operator bool() const { return committed(); }
};

/// One-shot future for a staged store mutation (what net::StoreAdapter
/// returns for a wire PUT/DEL). Deliberately lighter than std::future: no
/// shared state beyond the one std::function, no condition_variable —
/// progress is made by the CALLER's thread driving `step_` (poll on
/// ready(), drive-to-completion on get()), which is the right shape for
/// lazy completion where the resolving thread does the work rather than
/// sleep.
///
/// Single-consumer: poll and resolve from the thread that will consume the
/// value. A future dropped unresolved simply releases its step's state;
/// see the issuing API for what that means for the staged work.
template <typename T>
class TxFuture {
 public:
  TxFuture() = default;

  /// `step(self, block)`: advance the computation; with block=true, do not
  /// return until resolved. Returns true once `self` holds a value or an
  /// error. The step must fill value_/err_ via set_value/set_error.
  explicit TxFuture(std::function<bool(TxFuture&, bool)> step)
      : step_(std::move(step)) {}

  /// Non-blocking: advance if possible, report whether get() would return
  /// without waiting.
  bool ready() {
    if (!done_ && step_) done_ = step_(*this, /*block=*/false);
    return done_;
  }

  /// Drive to completion (possibly executing the transaction on this
  /// thread), then return the value or rethrow the transaction's error.
  /// Consumes the future.
  T get() {
    while (!done_) {
      if (!step_) throw std::logic_error("TxFuture::get on empty future");
      done_ = step_(*this, /*block=*/true);
    }
    step_ = nullptr;
    if (err_) std::rethrow_exception(err_);
    return std::move(*value_);
  }

  // Resolution interface for step functions.
  void set_value(T v) { value_.emplace(std::move(v)); }
  void set_error(std::exception_ptr e) { err_ = std::move(e); }

 private:
  std::function<bool(TxFuture&, bool)> step_;
  std::optional<T> value_;
  std::exception_ptr err_;
  bool done_ = false;
};

/// The one transaction retry loop. Immutable and shareable across threads;
/// per-call state lives on the stack and the calling thread's ThreadCtx.
class TxExecutor {
 public:
  TxExecutor() = default;
  explicit TxExecutor(TxPolicy policy) : policy_(std::move(policy)) {}

  const TxPolicy& policy() const { return policy_; }

  /// The contention manager attempts run under (the policy's, or the
  /// process-wide NoOp instance).
  ContentionManager& cm() const {
    static NoOpCM noop;
    return policy_.cm ? *policy_.cm : static_cast<ContentionManager&>(noop);
  }

  /// Run `body` as transactions rooted at `mgr` until one commits or the
  /// policy stops retrying. `body` may call mgr.txAbort() /
  /// txAbortCapacity(); TransactionAborted never escapes this call. A
  /// foreign exception thrown by `body` aborts the open attempt and
  /// propagates (the transaction is closed, CM notified). A policy with
  /// read_only set routes through execute_ro (snapshot attempt first).
  template <typename F>
  auto execute(core::TxManager& mgr, F&& body)
      -> TxResult<std::decay_t<std::invoke_result_t<F&>>> {
    using R = std::decay_t<std::invoke_result_t<F&>>;
    if (policy_.read_only) return execute_ro(mgr, std::forward<F>(body));
    const bool sampled = obs_sampled();
    const std::uint64_t t0 =
        sampled && policy_.latency_hist ? util::tsc_now() : 0;
    if (policy_.trace) policy_.trace->emit(obs::TraceEvent::kBegin);
    auto res = run_full<R>(mgr, body, 0);
    note_resolved(sampled, t0, res.stats);
    return res;
  }

  /// Run `body` once as a READ-ONLY transaction of `mgr` — no descriptor
  /// publication, no read-set tracking, one validation at txEndRO — and
  /// fall back transparently to full transactions (run under the policy,
  /// exactly as execute()) when the snapshot attempt cannot commit:
  ///
  ///   ReadOnlyViolation (the body wrote): the attempt is ABANDONED, not
  ///     aborted — nothing is billed at either the TxStats or the
  ///     TxManager level and no attempt-budget slot is consumed; a
  ///     mis-declared body is a mode switch, not contention.
  ///   TransactionAborted (torn snapshot, or the body's own txAbort):
  ///     billed once under its reason — the snapshot attempt consumes
  ///     attempt 0 of the policy budget, and the fallback counts one
  ///     retry for the mode switch. The policy's per-reason rules apply:
  ///     a reason it declines to retry is terminal here too.
  ///
  /// Either way the whole call bills exactly one logical operation: at
  /// most one commit, and each attempt exactly once under its outcome.
  /// Contention-manager hooks do not run around the snapshot attempt
  /// (there is no descriptor for them to stamp or pace); the fallback
  /// runs the full hook lifecycle.
  template <typename F>
  auto execute_ro(core::TxManager& mgr, F&& body)
      -> TxResult<std::decay_t<std::invoke_result_t<F&>>> {
    using R = std::decay_t<std::invoke_result_t<F&>>;
    TxResult<R> res;
    std::uint64_t attempts_used = 0;
    const bool sampled = obs_sampled();
    const std::uint64_t t0 =
        sampled && policy_.latency_hist ? util::tsc_now() : 0;
    if (policy_.trace) {
      policy_.trace->emit(obs::TraceEvent::kBegin);
      policy_.trace->emit(obs::TraceEvent::kROAttempt);
    }
    try {
      mgr.txBeginRO();
      if constexpr (std::is_void_v<R>) {
        body();
      } else {
        res.value = body();
      }
      mgr.txEndRO();
      res.stats.commits = 1;
      if (policy_.trace) policy_.trace->emit(obs::TraceEvent::kROCommit);
      note_resolved(sampled, t0, res.stats);
      return res;
    } catch (const core::ReadOnlyViolation&) {
      mgr.txAbandonRO();
      if constexpr (!std::is_void_v<R>) res.value.reset();
      res.ro_fallback = ROFallback::kWrite;
      if (policy_.trace)
        policy_.trace->emit(obs::TraceEvent::kROFallbackWrite);
    } catch (const core::TransactionAborted& e) {
      if constexpr (!std::is_void_v<R>) res.value.reset();
      switch (e.reason()) {
        case core::AbortReason::Conflict: res.stats.conflict_aborts++; break;
        case core::AbortReason::Validation:
          res.stats.validation_aborts++;
          break;
        case core::AbortReason::Capacity: res.stats.capacity_aborts++; break;
        case core::AbortReason::User: res.stats.user_aborts++; break;
      }
      if (policy_.trace)
        policy_.trace->emit(obs::TraceEvent::kAbort,
                            static_cast<std::uint8_t>(e.reason()), 0);
      const bool budget_left = policy_.max_attempts == 0 ||
                               policy_.max_attempts > 1;
      if (!policy_.retries(e.reason()) || !budget_left) {
        res.terminal = e.reason();
        if (policy_.trace)
          policy_.trace->emit(obs::TraceEvent::kGiveUp,
                              static_cast<std::uint8_t>(e.reason()), 0);
        note_resolved(sampled, t0, res.stats);
        return res;
      }
      res.stats.retries++;
      attempts_used = 1;
      res.ro_fallback = ROFallback::kValidation;
      if (policy_.trace)
        policy_.trace->emit(obs::TraceEvent::kROFallbackValidation,
                            static_cast<std::uint8_t>(e.reason()));
    } catch (...) {
      // Foreign exception out of the body: close the open snapshot
      // attempt (unbilled) and propagate.
      mgr.txAbandonRO();
      throw;
    }
    auto full = run_full<R>(mgr, body, attempts_used);
    res.stats += full.stats;
    res.terminal = full.terminal;
    if constexpr (!std::is_void_v<R>) res.value = std::move(full.value);
    note_resolved(sampled, t0, res.stats);
    return res;
  }

 private:
  /// Record end-of-call instruments (latency in ns, attempts consumed).
  /// Trace events are emitted at the exact transition points instead.
  void note_resolved(bool sampled, std::uint64_t t0, const TxStats& s) const {
    if (!sampled) return;
    if (policy_.latency_hist) {
      const double ns = static_cast<double>(util::tsc_now() - t0) *
                        util::tsc_ns_per_tick();
      policy_.latency_hist->record(
          ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    }
    if (policy_.attempts_hist)
      policy_.attempts_hist->record(s.aborts() + s.commits);
  }

  /// The 1-in-2^obs_sample_shift histogram-sampling decision for this
  /// call. The counter is a plain process-wide thread_local (shared by
  /// every executor — it only needs to be uncorrelated with latency, and
  /// round-robin over calls is). shift 0 short-circuits to true so
  /// unsampled policies (benches recording exact tails) pay one branch.
  bool obs_sampled() const noexcept {
    if (policy_.obs_sample_shift == 0) return true;
    static thread_local std::uint32_t calls = 0;
    return (calls++ & ((1u << policy_.obs_sample_shift) - 1)) == 0;
  }

  /// The full-transaction retry loop (the historical execute()), with the
  /// attempt counter starting at `attempts_used` so a preceding snapshot
  /// attempt consumes its slot of the policy budget.
  template <typename R, typename F>
  TxResult<R> run_full(core::TxManager& mgr, F& body,
                       std::uint64_t attempts_used) {
    TxResult<R> res;
    ContentionManager& manager = cm();
    obs::TraceRing* trace = policy_.trace;
    core::ThreadCtx* ctx = mgr.domain()->my_ctx();
    core::Desc& d = *ctx->desc;
    // Publish the manager and trace ring for intra-attempt hooks
    // (boostLock's semantic lock wait, CASObj's conflict arbitration);
    // restored whichever way the call ends.
    ContentionManager* prev_cm = ctx->cm;
    obs::TraceRing* prev_trace = ctx->trace;
    ctx->cm = &manager;
    ctx->trace = trace;
    for (std::uint64_t attempt = attempts_used;; attempt++) {
      bool opened = false;
      try {
        if (trace)
          trace->emit(obs::TraceEvent::kAttempt, 0,
                      static_cast<std::uint32_t>(attempt));
        mgr.txBegin();
        opened = true;
        manager.onAttemptStart(d, attempt);
        if constexpr (std::is_void_v<R>) {
          body();
        } else {
          res.value = body();
        }
        mgr.txEnd();
        res.stats.commits = 1;
        res.terminal.reset();
        ctx->cm = prev_cm;
        ctx->trace = prev_trace;
        manager.onFinish(d, true);
        if (trace)
          trace->emit(obs::TraceEvent::kCommit, 0,
                      static_cast<std::uint32_t>(attempt + 1));
        return res;
      } catch (const core::TransactionAborted& e) {
        switch (e.reason()) {
          case core::AbortReason::Conflict: res.stats.conflict_aborts++; break;
          case core::AbortReason::Validation:
            res.stats.validation_aborts++;
            break;
          case core::AbortReason::Capacity: res.stats.capacity_aborts++; break;
          case core::AbortReason::User: res.stats.user_aborts++; break;
        }
        if (trace)
          trace->emit(obs::TraceEvent::kAbort,
                      static_cast<std::uint8_t>(e.reason()),
                      static_cast<std::uint32_t>(attempt));
        manager.onAbort(d, e.reason(), attempt);
        if (trace && policy_.cm)
          trace->emit(obs::TraceEvent::kCMBackoff,
                      static_cast<std::uint8_t>(e.reason()),
                      static_cast<std::uint32_t>(attempt));
        const bool budget_left =
            policy_.max_attempts == 0 || attempt + 1 < policy_.max_attempts;
        if (!policy_.retries(e.reason()) || !budget_left) {
          res.terminal = e.reason();
          if constexpr (!std::is_void_v<R>) res.value.reset();
          ctx->cm = prev_cm;
          ctx->trace = prev_trace;
          manager.onFinish(d, false);
          if (trace)
            trace->emit(obs::TraceEvent::kGiveUp,
                        static_cast<std::uint8_t>(e.reason()),
                        static_cast<std::uint32_t>(attempt + 1));
          return res;
        }
        res.stats.retries++;
        if (trace)
          trace->emit(obs::TraceEvent::kRetry,
                      static_cast<std::uint8_t>(e.reason()),
                      static_cast<std::uint32_t>(attempt + 1));
      } catch (...) {
        // Foreign exception out of the body: close the attempt cleanly
        // (roll back speculative state, release boosted locks) and let it
        // propagate to the caller.
        ctx->cm = prev_cm;
        ctx->trace = prev_trace;
        manager.onFinish(d, false);
        if (opened && mgr.in_tx()) {
          try {
            mgr.txAbort();
          } catch (const core::TransactionAborted&) {
          }
        }
        throw;
      }
    }
  }

  TxPolicy policy_;
};

/// One-shot convenience: execute `body` under `policy` (default policy =
/// historical run_tx semantics with no backoff).
template <typename F>
auto execute_tx(core::TxManager& mgr, F&& body, TxPolicy policy = {}) {
  return TxExecutor(std::move(policy)).execute(mgr, std::forward<F>(body));
}

}  // namespace medley
