#pragma once
// BasicMedleyStore: the transactional KV-store façade (ROADMAP "serving
// layer"). Three nonblocking structures share one TxManager and every
// public operation is ONE Medley transaction composing them:
//
//   primary    — hash map from each key to the secondary's node for it
//                (a Handle), never to a copy of the value;
//   secondary  — ordered map, the one place each value lives (get reads
//                it through the primary's handle; range / scan walk it);
//   change feed — MSQueue of committed mutations, in serialization order.
//
// One record per key: a PUT of an existing key is one hash lookup and two
// critical CASes on the node its handle names (no skiplist search, no
// node allocated or retired); a new key inserts into the secondary and
// maps its handle in the primary; a DEL removes both. Because the writes
// of a mutation (primary update, secondary update, feed append) linearize
// atomically at MCNS commit, the indexes can never be observed out of
// sync by a committed transaction and the feed never shows a mutation
// that did not happen — without a single lock anywhere (paper Layer 2;
// PAPER.md "Layer 4 — serving").
//
// The façade is parameterized over the secondary so the same choreography
// serves the DRAM store (MedleyStore: FraserSkiplist) and the persistent
// one (PersistentMedleyStore: TxMontageSkiplist, whose nodes hold
// persistent payloads). The primary is always the store's own DRAM
// MichaelHashTable<K, Secondary::Handle>.
//
// Interface contract (Secondary, see ds/fraser_skiplist.hpp):
//   Handle, and the handle ops insert_handle / value_at / put_at /
//   remove_at — a handle is valid only inside the transaction whose
//   primary read produced it;
//   range / scan; handles_slow (quiescent; recovery and audits).
//   A store GET is 2 read entries (the hash link and the node's next[0]);
//   an existing-key PUT is 1 read entry and 2 write entries, plus the
//   feed's.
//
// Nesting: a store operation called while the thread is already inside a
// transaction of the same manager flat-nests into it (its effects commit
// or abort with the enclosing transaction). Top-level calls run under the
// store's TxExecutor (policy = StoreConfig::tx_policy) and record a
// TxStats into the StoreStats block; feed
// push/poll accounting rides the transaction's cleanup list instead, so
// it is exact in BOTH modes — counted once at commit (including an
// enclosing transaction's commit), discarded with an aborted attempt.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/combiner.hpp"
#include "core/medley.hpp"
#include "ds/michael_hashtable.hpp"
#include "ds/ms_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/feed.hpp"
#include "store/store_stats.hpp"

namespace medley::store {

/// Hard per-transaction ceiling on change-feed pops. Every dequeue costs a
/// descriptor write entry (the head CAS) and the merged drain also a read
/// entry (the re-peek of that head); a drain deeper than the word sets
/// would deterministically Capacity-abort — an abort the retry policy
/// treats as transient and re-runs — and the poll would spin forever.
/// Desc::kWriteCap / 2 leaves half the write set for the peeks and any
/// enclosing transaction's own writes. "Up to max_entries" permits
/// returning fewer; drain loops just call again.
inline constexpr std::size_t kMaxFeedDrainPerTx = core::Desc::kWriteCap / 2;

/// Store-layer contract for an executor call whose policy stopped
/// retrying: a transient terminal abort must not be mistaken for a
/// committed operation, so it is rethrown; a User abort stays silent
/// (store bodies only user-abort on behalf of the caller's own business
/// rule). Shared by BasicMedleyStore::exec and ShardedMedleyStore::transact.
template <typename R>
inline void rethrow_failed_non_user(const TxResult<R>& res) {
  if (!res.committed() && res.terminal &&
      *res.terminal != core::AbortReason::User) {
    throw core::TransactionAborted(*res.terminal);
  }
}

struct StoreConfig {
  std::size_t buckets = 1u << 16;  // primary hash size
  bool feed_enabled = true;        // disable to trade the feed for less
                                   // tail contention (bench ablation)

  /// One poll_feed transaction's drain clamp (≤ kMaxFeedDrainPerTx, which
  /// it defaults to; see that constant for the Capacity-abort-spin this
  /// prevents). Lower it to bound poll latency / feed burst size.
  /// Validated at store construction: 0 throws (it would silently make
  /// poll_feed a permanent no-op), anything above kMaxFeedDrainPerTx is
  /// clamped to it — config() reports the clamped, effective value.
  std::size_t feed_drain_per_tx = kMaxFeedDrainPerTx;

  /// Execution policy for the store's top-level transactions: retry rules
  /// and the ContentionManager pacing them (tx_exec.hpp). The default —
  /// unbounded retry of transient aborts, no backoff — reproduces the
  /// historical run_tx behavior. A store with a bounded policy surfaces
  /// budget exhaustion by rethrowing the terminal TransactionAborted.
  TxPolicy tx_policy{};

  /// Serve top-level get/contains/range/scan as READ-ONLY transactions
  /// (TxExecutor::execute_ro): no descriptor publication, no read-set
  /// tracking, one validation at the end, with a transparent full-
  /// transaction fallback on a torn snapshot. Off by default — the full
  /// path is the historical behavior and the fallback's extra attempt
  /// shows up in stats; read-dominated deployments (YCSB B/C/D) turn it
  /// on. Ambient transactions are unaffected: a store op inside an open
  /// transaction always flat-nests into it, whatever its mode.
  bool read_only_reads = false;

  /// Flat-combining group commit (core/combiner.hpp): top-level put/del/
  /// read_modify_write publish into per-store publication slots and a
  /// lock-holding combiner executes batches of up to combining.max_batch
  /// ops as ONE transaction — one descriptor, one commit CAS — so commit
  /// traffic amortizes under a contended key head. Default OFF: on an
  /// uncontended store the publication handshake is pure overhead (the
  /// honest-cost row in BENCH_ycsb_combining.json); turn it on for
  /// write-contended workloads (YCSB-A-like) or hot shards. Validated at
  /// construction: 0 slots / 0 max_batch throw; slots above
  /// core::kMaxCombinerSlots and max_batch above min(slots,
  /// core::kMaxCombinedBatch) clamp — config() reports effective values.
  /// Reads, ambient (flat-nested) operations and apply_batch never route
  /// through the combiner; cross-shard transactions of the sharded stores
  /// bypass it the same way.
  core::CombinerConfig combining;

  // ---- Observability (src/obs) -----------------------------------------

  /// Master switch for the metrics layer: per-op-type counters, per-op
  /// latency (ns) and attempts histograms recorded by the store's
  /// TxExecutors, abort-reason and RO-fallback counters, and key-count /
  /// feed-depth gauges — all queryable via dump_metrics(). Default OFF;
  /// the metrics-off hot path costs one untaken branch per operation.
  bool metrics = false;

  /// Histogram sampling: the store's executors record latency/attempts
  /// for 1 in 2^metrics_sample_shift operations (TxPolicy::obs_sample_shift).
  /// Counters, gauges, and stats() stay exact — only the histogram sample
  /// stream thins, which leaves quantiles unbiased. The default 1/64 keeps
  /// the TSC read pair (~20ns, >10% of a fast get) off the common path;
  /// set 0 to record every operation (exact-tail benches do).
  std::uint8_t metrics_sample_shift = 6;

  /// Registry the store's instruments live in. Null + metrics → the store
  /// creates a private one. ShardedStoreBase points every shard at ONE
  /// registry (with shard="i" labels) so dump_metrics() is store-wide.
  /// Pull gauges capture the store — a shared registry must not be read
  /// after a store that registered into it is destroyed.
  std::shared_ptr<obs::MetricsRegistry> metrics_registry;

  /// Constant labels stamped on every series this store registers (the
  /// sharded base sets {"shard", "<i>"}; single stores usually leave it
  /// empty).
  obs::Labels metric_labels;

  /// Per-thread capacity of the tx-lifecycle trace ring (obs/trace.hpp);
  /// 0 = tracing off (default). Independent of `metrics`: tracing is a
  /// debugging/post-mortem tool (a few relaxed stores per attempt), the
  /// registry a serving observable.
  std::size_t trace_capacity = 0;

  /// Ring to emit into. Null + trace_capacity → the store creates one.
  /// Sharded stores share one ring so a cross-shard transaction's
  /// lifecycle lands in a single timeline.
  std::shared_ptr<obs::TraceRing> trace_ring;
};

/// Construction-time validation of a StoreConfig (shared by
/// BasicMedleyStore and ShardedStoreBase): feed_drain_per_tx = 0 throws —
/// it would silently turn poll_feed into a permanent no-op — and values
/// above kMaxFeedDrainPerTx clamp to it (the documented contract; the
/// ceiling exists so a drain can never deterministically Capacity-abort).
inline StoreConfig validated(StoreConfig cfg) {
  if (cfg.feed_drain_per_tx == 0) {
    throw std::invalid_argument(
        "StoreConfig::feed_drain_per_tx must be > 0 (0 would make "
        "poll_feed a permanent no-op; disable the feed with feed_enabled "
        "instead)");
  }
  cfg.feed_drain_per_tx =
      std::min(cfg.feed_drain_per_tx, kMaxFeedDrainPerTx);
  if (cfg.combining.enabled) {
    if (cfg.combining.slots == 0) {
      throw std::invalid_argument(
          "StoreConfig::combining.slots must be > 0 when combining is "
          "enabled (0 slots would make every mutation spin forever looking "
          "for a publication slot; disable combining instead)");
    }
    if (cfg.combining.max_batch == 0) {
      throw std::invalid_argument(
          "StoreConfig::combining.max_batch must be > 0 when combining is "
          "enabled (a 0-op batch would make the combiner a no-op and every "
          "waiter wait forever)");
    }
    cfg.combining.slots =
        std::min(cfg.combining.slots, core::kMaxCombinerSlots);
    // A batch can never exceed the slot count, and core::kMaxCombinedBatch
    // keeps a full batch's write entries clear of Desc::kWriteCap (the
    // same deterministic-Capacity-abort spin the feed clamp prevents).
    cfg.combining.max_batch = std::min(
        {cfg.combining.max_batch, cfg.combining.slots,
         core::kMaxCombinedBatch});
  }
  return cfg;
}

template <typename K, typename V, typename Secondary>
class BasicMedleyStore : public core::Composable {
 public:
  using FeedItem = FeedEntry<K, V>;
  using Primary = ds::MichaelHashTable<K, typename Secondary::Handle>;

  /// The store owns the primary and the feed queue, and borrows the
  /// secondary (owned by the concrete subclass, which knows how to build
  /// it). Composable gives it addToCleanups for commit-exact feed
  /// accounting.
  BasicMedleyStore(core::TxManager* mgr, Secondary* secondary,
                   const StoreConfig& cfg)
      : Composable(mgr),
        primary_(mgr, cfg.buckets),
        secondary_(secondary),
        cfg_(validated(cfg)),
        exec_(cfg.tx_policy),
        feed_(mgr) {
    init_observability();
    if (cfg_.combining.enabled) {
      combiner_ = std::make_unique<Combiner>(
          cfg_.combining.slots, cfg_.combining.max_batch, trace_ring_.get());
    }
  }

  /// Operation types the store instruments (the `op` label of every
  /// per-op metric series).
  enum OpType : int {
    kOpGet = 0,
    kOpContains,
    kOpPut,
    kOpDel,
    kOpRmw,
    kOpMultiPut,
    kOpRange,
    kOpScan,
    kOpPeekFeed,
    kOpPollFeed,
    kOpCross,    // used by ShardedStoreBase for cross-shard transactions
    kOpCombine,  // one combined group-commit batch (N logical ops)
    kOpTypeCount
  };

  static const char* op_name(int op) {
    static constexpr const char* kNames[kOpTypeCount] = {
        "get",   "contains", "put",  "del",       "rmw",       "multi_put",
        "range", "scan",     "peek_feed", "poll_feed", "cross", "combine"};
    return kNames[op];
  }

  // ---- point operations --------------------------------------------------

  std::optional<V> get(const K& k) {
    std::optional<V> res;
    exec_ro(kOpGet, [&] { res = get_in_tx(k); });
    return res;
  }

  /// Existence probe. Unlike get(), never materializes the value: the
  /// primary's existence-only lookup registers just the witnessing bucket
  /// link, so a contains over a large value type copies nothing.
  bool contains(const K& k) {
    bool res = false;
    exec_ro(kOpContains, [&] { res = primary_.contains(k); });
    return res;
  }

  /// One mutation as the combiner, apply_batch and the wire adapter carry
  /// it. rmw travels type-erased: `fn(ctx, current)` computes the desired
  /// value; ctx points at the caller's callable, which must outlive the
  /// call that applies it (read_modify_write's own frame does).
  struct Mutation {
    enum Kind : std::uint8_t { kPut, kDel, kRmw };
    Kind kind = kPut;
    K key{};
    V val{};
    const void* ctx = nullptr;
    std::optional<V> (*fn)(const void*, const std::optional<V>&) = nullptr;
  };

  /// A mutation with its result cell and per-op error — the combiner's
  /// record, and apply_batch's unit.
  using Op = typename core::FlatCombiner<Mutation, std::optional<V>>::Op;

  /// Insert-or-replace; returns the previous value if any. With combining
  /// enabled, a top-level call publishes into the combiner and the batch
  /// transaction commits it (same return value, same linearization
  /// guarantees — the batch IS one transaction).
  std::optional<V> put(const K& k, const V& v) {
    return mutate(Mutation{Mutation::kPut, k, v});
  }

  /// Remove; returns the removed value if the key was present.
  std::optional<V> del(const K& k) {
    return mutate(Mutation{Mutation::kDel, k});
  }

  /// Atomic read-modify-write: `f(current) -> desired` where nullopt on
  /// either side means absent. Returns the value f chose (nullopt = the
  /// key is now absent). f may run several times (once per tx attempt)
  /// and must be side-effect-free; with combining enabled it may also run
  /// on ANOTHER thread (the combiner executing the batch), though never
  /// after this call returns. An exception out of f fails only this op —
  /// the rest of the batch still commits — and is rethrown here.
  template <typename F>
  std::optional<V> read_modify_write(const K& k, F&& f) {
    Mutation m{Mutation::kRmw, k};
    m.ctx = &f;
    m.fn = [](const void* ctx, const std::optional<V>& cur) {
      auto* fp =
          static_cast<std::remove_reference_t<F>*>(const_cast<void*>(ctx));
      return std::optional<V>((*fp)(cur));
    };
    return mutate(m);
  }

  /// Apply a run of mutations in order, each chunk of at most
  /// core::kMaxCombinedBatch ops as ONE transaction — the group commit of
  /// a producer that already holds its batch (the network server's wave),
  /// with no publication handshake. Every op gets its result in op.res,
  /// or in op.err the exception its rmw callback threw (that op is
  /// skipped; the rest of its chunk commits). If a chunk cannot commit (a
  /// bounded policy gave up), every op of that chunk gets the chunk's
  /// shared error and none of its effects are visible — later chunks
  /// still run. Billed like a combiner batch: one logical commit per op,
  /// one combined batch per chunk. Inside an ambient transaction the ops
  /// flat-nest into it instead, like every store operation.
  void apply_batch(std::span<Op> ops) {
    if (mgr->in_tx()) {
      for (Op& op : ops) op.res = apply(op.req, &op.err);
      return;
    }
    for (std::size_t i = 0; i < ops.size(); i += core::kMaxCombinedBatch) {
      const std::span<Op> chunk =
          ops.subspan(i, std::min(core::kMaxCombinedBatch, ops.size() - i));
      commit_group(chunk.size(), [&](std::size_t j) -> Op& {
        return chunk[j];
      });
    }
  }

  /// All-or-nothing batch upsert (one transaction, one feed entry per
  /// key). Batch size is bounded by the descriptor write set (~1K words).
  void multi_put(const std::vector<std::pair<K, V>>& kvs) {
    exec(kOpMultiPut, [&] {
      for (const auto& [k, v] : kvs) put_in_tx(k, v);
    });
  }

  // ---- ordered operations (secondary index) ------------------------------

  /// Atomic snapshot of all entries with lo <= key <= hi, ascending.
  std::vector<std::pair<K, V>> range(const K& lo, const K& hi) {
    std::vector<std::pair<K, V>> out;
    exec_ro(kOpRange, [&] { out = secondary_->range(lo, hi); });
    return out;
  }

  /// Atomic snapshot of up to `limit` entries with key >= lo, ascending.
  std::vector<std::pair<K, V>> scan(const K& lo, std::size_t limit) {
    std::vector<std::pair<K, V>> out;
    exec_ro(kOpScan, [&] { out = secondary_->scan(lo, limit); });
    return out;
  }

  // ---- change feed -------------------------------------------------------

  /// Front of the change feed without consuming it (transactional: the
  /// head's identity joins the read set). The sharded store's merged poll
  /// peeks every shard inside one transaction to pick the next entry.
  std::optional<FeedItem> peek_feed() {
    std::optional<FeedItem> out;
    exec(kOpPeekFeed, [&] { out = feed_.peek(); });
    return out;
  }

  /// Atomically drain up to `max_entries` committed mutations, oldest
  /// first. Entries leave the feed exactly once (consumer groups are the
  /// caller's problem). Empty result = feed drained. One call pops at
  /// most feed_drain_per_tx entries (see kMaxFeedDrainPerTx for the
  /// Capacity-abort-spin the clamp prevents) — drain loops just call
  /// again.
  std::vector<FeedItem> poll_feed(std::size_t max_entries) {
    // cfg_ is construction-validated: feed_drain_per_tx is non-zero and
    // already clamped to kMaxFeedDrainPerTx.
    max_entries = std::min(max_entries, cfg_.feed_drain_per_tx);
    std::vector<FeedItem> out;
    exec(kOpPollFeed, [&] {
      out.clear();
      while (out.size() < max_entries) {
        auto e = feed_.dequeue();
        if (!e) break;
        out.push_back(*e);
      }
      if (const std::size_t n = out.size(); n > 0) {
        addToCleanups([this, n] { stats_.note_feed_poll(n); });
      }
    });
    if (feed_drain_hist_ != nullptr) feed_drain_hist_->record(out.size());
    return out;
  }

  // ---- introspection -----------------------------------------------------

  StoreStats::Snapshot stats() const { return stats_.aggregate(); }
  StoreStats::Snapshot stats_mine() const { return stats_.mine(); }

  /// Committed group commits — combiner batches and apply_batch chunks —
  /// and the logical ops they carried. combined_ops() / combined_batches()
  /// is the achieved amortization factor; the full distribution is the
  /// medley_store_combined_batch histogram in dump_metrics().
  std::uint64_t combined_batches() const {
    return stats_.aggregate().combined_batches;
  }
  std::uint64_t combined_ops() const {
    return stats_.aggregate().combined_ops;
  }
  std::uint64_t feed_depth() const { return stats_.feed_depth(); }
  const StoreConfig& config() const { return cfg_; }
  core::TxManager* manager() { return mgr; }
  Primary& primary() { return primary_; }
  Secondary& secondary() { return *secondary_; }

  /// Prometheus text exposition of every metric this store registered
  /// (empty string when StoreConfig::metrics is off).
  std::string dump_metrics() const {
    return registry_ ? registry_->prometheus() : std::string{};
  }

  /// Same registry as a JSON array (histograms with p50/p90/p99/p999).
  std::string dump_metrics_json() const {
    return registry_ ? registry_->json() : std::string{"[]"};
  }

  /// The registry (null when metrics are off); sharded stores hand every
  /// shard the same one.
  const std::shared_ptr<obs::MetricsRegistry>& metrics_registry() const {
    return registry_;
  }

  /// The tx-lifecycle ring (null when trace_capacity == 0) and its
  /// human-readable dump — post-mortem interleaving analysis.
  const std::shared_ptr<obs::TraceRing>& trace_ring() const {
    return trace_ring_;
  }
  std::string dump_trace() const {
    return trace_ring_ ? trace_ring_->dump_text() : std::string{};
  }

 protected:
  using Combiner = core::FlatCombiner<Mutation, std::optional<V>>;
  using CombSlot = typename Combiner::Slot;

  static OpType op_type(const Mutation& m) {
    switch (m.kind) {
      case Mutation::kPut:
        return kOpPut;
      case Mutation::kDel:
        return kOpDel;
      case Mutation::kRmw:
        break;
    }
    return kOpRmw;
  }

  /// The executor a top-level op of type `op` runs under: its per-op
  /// instrumented one when metrics or tracing are on, else the plain one.
  TxExecutor& executor(OpType op) {
    return instrumented_ ? op_exec_[op] : exec_;
  }

  /// Run `body` as this store's transaction: flat-nested into an ambient
  /// transaction, else executed by the store's TxExecutor under the
  /// configured TxPolicy and billed. (Feed counters are NOT handled here —
  /// they ride the cleanup list so they fire exactly once, at whichever
  /// transaction actually commits the effects.) If a bounded policy
  /// exhausts its budget on a transient reason, the terminal abort is
  /// rethrown so callers never mistake a non-committed operation for a
  /// committed one; a user abort stays silent (the historical contract —
  /// store bodies only user-abort on behalf of the caller's own business
  /// rule).
  template <typename Body>
  void exec(OpType op, Body&& body) {
    if (mgr->in_tx()) {
      body();
      return;
    }
    auto res = executor(op).execute(*mgr, body);
    bill(res.stats, res.ro_fallback, {&op, 1}, /*group=*/false);
    rethrow_failed_non_user(res);
  }

  /// exec() for bodies declared read-only (get/contains/range/scan): with
  /// StoreConfig::read_only_reads set, a top-level call takes the
  /// executor's validation-free snapshot path (execute_ro) and falls back
  /// transparently to a full transaction on a torn snapshot; with the
  /// knob off it is exactly exec(). An ambient transaction flat-nests
  /// either way — the enclosing transaction's mode governs, and under an
  /// enclosing READ-ONLY transaction the body's reads join its log.
  template <typename Body>
  void exec_ro(OpType op, Body&& body) {
    if (mgr->in_tx()) {
      body();
      return;
    }
    if (!cfg_.read_only_reads) {
      exec(op, std::forward<Body>(body));
      return;
    }
    auto res = executor(op).execute_ro(*mgr, body);
    bill(res.stats, res.ro_fallback, {&op, 1}, /*group=*/false);
    rethrow_failed_non_user(res);
  }

  /// The write path of put/del/read_modify_write: published into the
  /// combiner when it is on and no transaction is open, else one store
  /// transaction of its own (or flat-nested into the open one).
  std::optional<V> mutate(Mutation m) {
    if (combiner_ && !mgr->in_tx()) {
      return combiner_->submit(
          std::move(m), [this](std::vector<CombSlot*>& batch) {
            commit_group(batch.size(), [&](std::size_t i) -> Op& {
              return batch[i]->op;
            });
          });
    }
    std::optional<V> out;
    exec(op_type(m), [&] { out = apply(m); });
    return out;
  }

  /// The one mutation-apply function: the eager path, the combiner's
  /// batches and apply_batch all run every put/del/rmw through it, inside
  /// the current transaction. Returns the previous value (put/del) or the
  /// value the rmw callback chose. With `user_err` given, an exception out
  /// of the rmw callback fails only this op: it is stored there and
  /// nothing of the op is written (the callback runs before any write).
  /// Without it the exception propagates — and a TransactionAborted always
  /// does, since it is the transaction's, not the user's.
  std::optional<V> apply(const Mutation& m,
                         std::exception_ptr* user_err = nullptr) {
    if (user_err != nullptr) *user_err = nullptr;  // fresh every attempt
    switch (m.kind) {
      case Mutation::kPut:
        return put_in_tx(m.key, m.val);
      case Mutation::kDel:
        return del_in_tx(m.key);
      case Mutation::kRmw:
        break;
    }
    std::optional<V> cur = get_in_tx(m.key);
    std::optional<V> desired;
    try {
      desired = m.fn(m.ctx, cur);
    } catch (const core::TransactionAborted&) {
      throw;
    } catch (...) {
      if (user_err == nullptr) throw;
      *user_err = std::current_exception();
      return std::nullopt;
    }
    if (desired) {
      put_in_tx(m.key, *desired);
    } else if (cur) {
      del_in_tx(m.key);
    }
    return desired;
  }

  /// The one group-commit path, shared by the combiner's batches and
  /// apply_batch's chunks: apply ops [0, n) as ONE transaction — one
  /// descriptor, one commit CAS — and bill it as a group. If the
  /// transaction cannot commit, every op gets the shared error
  /// (all-or-nothing). Never throws: the outcome is in the ops.
  template <typename OpAt>
  void commit_group(std::size_t n, OpAt&& op_at) {
    assert(n <= core::kMaxCombinedBatch);
    std::exception_ptr err;
    try {
      auto res = executor(kOpCombine).execute(*mgr, [&] {
        for (std::size_t i = 0; i < n; i++) {
          Op& op = op_at(i);
          op.res = apply(op.req, &op.err);
        }
      });
      // An op whose rmw callback threw wrote nothing and is not billed.
      OpType billed[core::kMaxCombinedBatch];
      std::size_t nbilled = 0;
      for (std::size_t i = 0; i < n; i++) {
        if (!op_at(i).err) billed[nbilled++] = op_type(op_at(i).req);
      }
      bill(res.stats, std::nullopt, {billed, nbilled}, /*group=*/true);
      if (!res.committed()) {
        err = std::make_exception_ptr(core::TransactionAborted(
            res.terminal.value_or(core::AbortReason::User)));
      }
    } catch (...) {
      err = std::current_exception();  // foreign: the attempt was aborted
    }
    if (!err) return;
    for (std::size_t i = 0; i < n; i++) {
      op_at(i).err = err;
      op_at(i).res = std::nullopt;
    }
  }

  /// The one billing function, shared by the eager path, the combiner's
  /// batches and apply_batch's chunks: fold one executed transaction into
  /// StoreStats and the registry. The transaction's own cost — aborts by
  /// reason, retries, RO fallback — bills once. Each logical op it carried
  /// (`ops`) bills one ops_total under its type and, if the transaction
  /// committed, one commit, so N ops read as N logical ops however they
  /// were grouped. A committed group also bills one combined batch.
  void bill(const TxStats& tx, std::optional<ROFallback> fb,
            std::span<const OpType> ops, bool group) {
    TxStats s = tx;
    s.commits = tx.commits != 0 ? ops.size() : 0;
    stats_.record(s);
    const bool combined = group && s.commits != 0;
    if (combined) {
      stats_.note_group(s.commits);
      if (trace_ring_) {
        trace_ring_->emit(obs::TraceEvent::kCombineBatch, 0,
                          static_cast<std::uint32_t>(s.commits));
      }
    }
    if (!registry_) return;
    for (OpType op : ops) op_counters_[op]->inc();
    if (s.conflict_aborts) abort_counters_[0]->inc(s.conflict_aborts);
    if (s.validation_aborts) abort_counters_[1]->inc(s.validation_aborts);
    if (s.capacity_aborts) abort_counters_[2]->inc(s.capacity_aborts);
    if (s.user_aborts) abort_counters_[3]->inc(s.user_aborts);
    if (s.retries) retries_counter_->inc(s.retries);
    if (fb) ro_fallback_counters_[*fb == ROFallback::kWrite ? 0 : 1]->inc();
    if (combined) {
      combined_batch_hist_->record(s.commits);
      combined_ops_counter_->inc(s.commits);
    }
  }

  /// A key's value: the primary's handle, then the node's value cell.
  std::optional<V> get_in_tx(const K& k) {
    const auto h = primary_.get(k);
    if (!h) return std::nullopt;
    return secondary_->value_at(*h);
  }

  std::optional<V> put_in_tx(const K& k, const V& v) {
    std::optional<V> old;
    if (const auto h = primary_.get(k)) {
      old = secondary_->put_at(*h, v);
    } else {
      // The secondary holds k here only if a PUT of k committed after our
      // primary read; insert_handle then returns that node, and the
      // primary read's validation dooms this transaction at commit.
      primary_.insert(k, secondary_->insert_handle(k, v).first);
      // Key-count accounting rides the cleanup list like the feed
      // counters: counted once iff the mutation actually commits, so
      // key_count() is the exact live-key total between quiescent points
      // (the sharded stores' partition-imbalance observable).
      addToCleanups([this] { stats_.note_key_insert(1); });
    }
    feed_append(FeedItem{FeedOp::Put, k, v});
    return old;
  }

  std::optional<V> del_in_tx(const K& k) {
    const auto h = primary_.remove(k);
    if (!h) return std::nullopt;  // read-only outcome, still validated
    std::optional<V> old = secondary_->remove_at(*h);
    feed_append(FeedItem{FeedOp::Del, k, V{}});
    addToCleanups([this] { stats_.note_key_remove(1); });
    return old;
  }

  void feed_append(FeedItem item) {
    if (!cfg_.feed_enabled) return;
    // Stamp inside the transaction: an aborted attempt burns a stamp (gaps
    // are fine); the retry draws a fresh, larger one.
    item.seq = feed_seq_->fetch_add(1, std::memory_order_relaxed);
    feed_.enqueue(item);
    addToCleanups([this] { stats_.note_feed_push(1); });
  }

  /// Build the metrics / tracing plumbing from cfg_. Registration is the
  /// cold path: instruments resolve to raw pointers ONCE here; the hot
  /// path then only bumps per-thread slots. Per-op TxExecutors carry the
  /// per-op-type latency/attempts histograms (and the trace ring) in their
  /// policies, so instrumented and plain execution share one code path.
  void init_observability() {
    if (cfg_.trace_capacity > 0) {
      trace_ring_ = cfg_.trace_ring
                        ? cfg_.trace_ring
                        : std::make_shared<obs::TraceRing>(cfg_.trace_capacity);
    }
    if (cfg_.metrics) {
      registry_ = cfg_.metrics_registry
                      ? cfg_.metrics_registry
                      : std::make_shared<obs::MetricsRegistry>();
      util::tsc_ns_per_tick();  // calibrate now, not on the first op
    }
    instrumented_ = registry_ != nullptr || trace_ring_ != nullptr;
    if (!instrumented_) return;

    auto labeled = [&](const char* k, const char* v) {
      obs::Labels l = cfg_.metric_labels;
      l.emplace_back(k, v);
      return l;
    };
    for (int op = 0; op < kOpTypeCount; op++) {
      TxPolicy p = cfg_.tx_policy;
      p.trace = trace_ring_.get();
      p.obs_sample_shift = cfg_.metrics_sample_shift;
      if (registry_) {
        op_counters_[op] = &registry_->counter(
            "medley_store_ops_total", "Completed top-level store operations",
            labeled("op", op_name(op)));
        p.latency_hist = &registry_->histogram(
            "medley_store_op_latency_ns",
            "End-to-end latency of top-level store operations (ns)",
            labeled("op", op_name(op)));
        p.attempts_hist = &registry_->histogram(
            "medley_store_op_attempts",
            "Transaction attempts consumed per top-level operation",
            labeled("op", op_name(op)));
      }
      op_exec_[op] = TxExecutor(std::move(p));
    }
    if (!registry_) return;
    static constexpr const char* kReasons[] = {"conflict", "validation",
                                               "capacity", "user"};
    for (int r = 0; r < 4; r++) {
      abort_counters_[r] = &registry_->counter(
          "medley_store_aborts_total", "Aborted transaction attempts by reason",
          labeled("reason", kReasons[r]));
    }
    retries_counter_ = &registry_->counter(
        "medley_store_tx_retries_total",
        "Aborted attempts that were re-run under the store's policy",
        cfg_.metric_labels);
    ro_fallback_counters_[0] = &registry_->counter(
        "medley_store_ro_fallbacks_total",
        "Read-only snapshot attempts that fell back to a full transaction",
        labeled("kind", "write"));
    ro_fallback_counters_[1] = &registry_->counter(
        "medley_store_ro_fallbacks_total",
        "Read-only snapshot attempts that fell back to a full transaction",
        labeled("kind", "validation"));
    feed_drain_hist_ = &registry_->histogram(
        "medley_store_feed_drain", "Entries drained per poll_feed call",
        cfg_.metric_labels);
    combined_batch_hist_ = &registry_->histogram(
        "medley_store_combined_batch",
        "Ops executed per combined group-commit batch", cfg_.metric_labels);
    combined_ops_counter_ = &registry_->counter(
        "medley_store_combined_ops_total",
        "Store operations committed via combined group-commit batches",
        cfg_.metric_labels);
    registry_->gauge_fn("medley_store_keys",
                        "Live keys (commit-exact insert minus remove)",
                        cfg_.metric_labels, [this] {
                          return static_cast<double>(
                              stats_.aggregate().key_count());
                        });
    registry_->gauge_fn("medley_store_feed_depth",
                        "Committed feed entries not yet polled",
                        cfg_.metric_labels, [this] {
                          return static_cast<double>(stats_.feed_depth());
                        });
  }

  Primary primary_;
  Secondary* secondary_;
  StoreConfig cfg_;
  TxExecutor exec_;
  ds::MSQueue<FeedItem> feed_;
  StoreStats stats_;
  std::atomic<std::uint64_t> owned_feed_seq_{0};
  std::atomic<std::uint64_t>* feed_seq_ = &owned_feed_seq_;

  // Observability plumbing (init_observability). Raw instrument pointers
  // stay valid for the registry's lifetime; the store keeps the registry
  // (and ring) alive via shared_ptr.
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::shared_ptr<obs::TraceRing> trace_ring_;
  bool instrumented_ = false;
  TxExecutor op_exec_[kOpTypeCount];
  obs::Counter* op_counters_[kOpTypeCount] = {};
  obs::Counter* abort_counters_[4] = {};
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* ro_fallback_counters_[2] = {};  // write, validation
  obs::Histogram* feed_drain_hist_ = nullptr;
  obs::Histogram* combined_batch_hist_ = nullptr;
  obs::Counter* combined_ops_counter_ = nullptr;

  /// The flat combiner (null unless cfg_.combining.enabled). Built after
  /// init_observability so it can emit into the store's trace ring.
  std::unique_ptr<Combiner> combiner_;

 public:
  /// Stamp feed entries from a shared sequencer instead of the store's own
  /// counter. ShardedMedleyStore points every shard at one sequencer so
  /// the merged feed can interleave shards near commit order. Call before
  /// any traffic; the sequencer must outlive the store.
  void share_feed_sequencer(std::atomic<std::uint64_t>* seq) {
    feed_seq_ = seq;
  }

  // ---- sharded-merge internals ------------------------------------------
  // ShardedMedleyStore's merged poll drains the queue directly inside its
  // own (ambient) transaction — bypassing poll_feed's per-call vector and
  // per-entry accounting closure — and defers ONE poll count per shard.

  ds::MSQueue<FeedItem>& feed_queue() { return feed_; }

  /// Commit-exact accounting for `n` entries drained via feed_queue():
  /// counted once iff the enclosing transaction commits.
  void defer_feed_poll_accounting(std::size_t n) {
    if (n > 0) addToCleanups([this, n] { stats_.note_feed_poll(n); });
  }
};

}  // namespace medley::store
