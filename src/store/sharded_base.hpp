#pragma once
// ShardedStoreBase: the partitioning-agnostic machinery shared by every
// sharded MedleyStore — N full shards (each a MedleyStore with its own
// TxManager, hash primary, skiplist secondary, and change feed) under ONE
// TxDomain, so the single-shard fast path never touches another shard's
// metadata while cross-shard operations stay one atomic transaction (one
// thread descriptor, one commit-point status CAS; see tx_domain.hpp — the
// MCNS protocol never cared which manager a cell belonged to).
//
// What lives here is everything that does not depend on HOW keys map to
// shards:
//
//   point ops            — route to the owning shard's fast path via the
//                          derived class's shard_of(k);
//   multi_put / read_modify_write_many / transact
//                        — group by shard; single-shard batches delegate,
//                          anything else runs as one domain transaction
//                          flat-nesting each shard store's ops;
//   apply_batch          — split a run of mutations by home shard; each
//                          shard group-commits its part, in order;
//   poll_feed            — one transaction k-way-merges the shard feeds by
//                          the shared sequence stamp (peek every
//                          non-exhausted head, dequeue the smallest);
//                          per-shard FIFO — the exact per-key serialization
//                          order — is never reordered (feed.hpp);
//   stats                — aggregate = sum(shards) + the cross-shard block,
//                          including the commit-exact per-shard key counts
//                          (store_stats.hpp) that make partition imbalance
//                          observable.
//
// What the derived class provides is the partitioning itself:
//
//   ShardedMedleyStore       hash partitioning — uniform spread, ordered
//                            ops k-way-merge ALL shards
//                            (sharded_store.hpp);
//   RangeShardedMedleyStore  contiguous key ranges — ordered ops descend
//                            only into the shards whose interval
//                            intersects the query and concatenate
//                            (range_sharded_store.hpp).
//
// CRTP contract for Derived:
//   std::size_t shard_of(const K&) const;   // total, stable routing
//   range(lo, hi) / scan(lo, limit);        // partitioning-shaped
//
// Consistency contract (tests/test_sharded_store.cpp,
// tests/test_range_sharded_store.cpp): per shard, the I1-I4 invariants of
// basic_store.hpp; globally, any committed transaction observes all shards
// at one serialization point (a cross-shard multi_put is never
// half-visible), and the merged feed replayed over an empty map reproduces
// the union of the shard primaries.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/medley.hpp"
#include "store/medley_store.hpp"
#include "store/store_stats.hpp"

namespace medley::store {

template <typename K, typename V, typename Derived>
class ShardedStoreBase {
 public:
  using Shard = MedleyStore<K, V>;
  using FeedItem = FeedEntry<K, V>;
  using Mutation = typename Shard::Mutation;
  using Op = typename Shard::Op;

  // ---- topology ----------------------------------------------------------

  std::size_t shard_count() const { return shards_.size(); }

  Shard& shard(std::size_t i) { return *shards_[i].store; }
  const Shard& shard(std::size_t i) const { return *shards_[i].store; }
  core::TxManager* manager(std::size_t i) { return shards_[i].mgr.get(); }
  core::TxDomain* domain() { return domain_.get(); }

  // ---- point operations: single-shard fast path --------------------------

  std::optional<V> get(const K& k) { return home(k).get(k); }
  bool contains(const K& k) { return home(k).contains(k); }
  std::optional<V> put(const K& k, const V& v) { return home(k).put(k, v); }
  std::optional<V> del(const K& k) { return home(k).del(k); }

  template <typename F>
  std::optional<V> read_modify_write(const K& k, F&& f) {
    return home(k).read_modify_write(k, std::forward<F>(f));
  }

  // With StoreConfig::combining enabled every shard builds its own
  // combiner (the shard config copy carries the knobs), so the point ops
  // above group-commit per shard — batches never mix shards, and
  // cross-shard transactions (multi_put, transact) bypass combining
  // entirely: their inner shard ops flat-nest into the ambient domain
  // transaction, which in_tx() detects.

  /// BasicMedleyStore::apply_batch over the shards: the run splits by home
  /// shard, each shard's part keeps its order and commits in chunks of at
  /// most core::kMaxCombinedBatch ops — so atomicity is per shard, exactly
  /// as with the per-shard combiner batches. Results land in `ops`.
  void apply_batch(std::span<Op> ops) {
    if (ops.empty()) return;
    // Per-call scratch, reused across calls (like poll_feed's).
    thread_local std::vector<std::size_t> home_of;
    thread_local std::vector<std::vector<Op>> parts;
    home_of.clear();
    for (const Op& op : ops) home_of.push_back(derived().shard_of(op.req.key));
    if (std::all_of(home_of.begin(), home_of.end(),
                    [&](std::size_t h) { return h == home_of[0]; })) {
      shards_[home_of[0]].store->apply_batch(ops);
      return;
    }
    if (parts.size() < shards_.size()) parts.resize(shards_.size());
    for (auto& p : parts) p.clear();  // a flat-nested abort may leave some
    for (std::size_t i = 0; i < ops.size(); i++) {
      parts[home_of[i]].push_back(std::move(ops[i]));
    }
    for (std::size_t s = 0; s < shards_.size(); s++) {
      if (!parts[s].empty()) shards_[s].store->apply_batch(parts[s]);
    }
    // Scatter back: each shard's part is in run order, so walking the run
    // backwards pops every part from its back.
    for (std::size_t i = ops.size(); i-- > 0;) {
      ops[i] = std::move(parts[home_of[i]].back());
      parts[home_of[i]].pop_back();
    }
  }

  // ---- cross-shard atomic operations -------------------------------------

  /// All-or-nothing batch upsert across any number of shards (one
  /// transaction, one commit CAS, one feed entry per key on its shard's
  /// feed). Single-shard batches take that shard's fast path.
  void multi_put(const std::vector<std::pair<K, V>>& kvs) {
    if (kvs.empty()) return;
    if (const auto only = single_shard_of(kvs)) {
      shards_[*only].store->multi_put(kvs);
      return;
    }
    cross_exec([&] {
      for (const auto& [k, v] : kvs) home(k).put(k, v);
    });
  }

  /// Atomic read-modify-write over a key set spanning shards:
  /// `f(key, current) -> desired` per key, nullopt meaning absent on
  /// either side. All reads and all writes belong to one transaction —
  /// a cross-shard transfer is one call. f may run once per attempt and
  /// must be side-effect-free.
  template <typename F>
  void read_modify_write_many(const std::vector<K>& keys, F&& f) {
    if (keys.empty()) return;
    cross_exec([&] {
      for (const K& k : keys) {
        Shard& s = home(k);
        std::optional<V> cur = s.get(k);
        std::optional<V> desired =
            f(k, static_cast<const std::optional<V>&>(cur));
        if (desired) {
          s.put(k, *desired);
        } else if (cur) {
          s.del(k);
        }
      }
    });
  }

  /// Run arbitrary store operations (on this store or its shards) as one
  /// atomic transaction under the configured TxPolicy (same executor
  /// contract as the per-shard ops: a bounded policy that exhausts its
  /// budget rethrows the terminal abort). Returns the executor's TxStats.
  template <typename F>
  TxStats transact(F&& body) {
    if (domain_->in_tx()) {  // flat-nest into an ambient transaction
      body();
      return {};
    }
    auto res = cross_exec_.execute(*root_mgr(), std::forward<F>(body));
    if (registry_) note_cross_result(res);
    cross_stats_.record(res.stats);
    rethrow_failed_non_user(res);
    return res.stats;
  }

  // ---- merged change feed ------------------------------------------------

  /// Atomically drain up to `max_entries` committed mutations across all
  /// shard feeds, merged by sequence stamp (peek every head, pop the
  /// smallest; per-shard FIFO is never reordered). One transaction: either
  /// the whole drained batch leaves the feeds, or none of it.
  ///
  /// Hot-path shape (this is the replication tap, called once per
  /// mutation by the YCSB drivers): the merge works on the raw per-shard
  /// queues inside one transaction — no per-entry sub-poll, no per-entry
  /// accounting closure — and degenerates to a straight drain when zero
  /// or one shard has entries, which is the steady state of a tap that
  /// keeps up.
  std::vector<FeedItem> poll_feed(std::size_t max_entries) {
    const std::size_t n = shards_.size();
    if (n == 1) return shards_[0].store->poll_feed(max_entries);
    // Clamp one transaction's drain to StoreConfig::feed_drain_per_tx
    // (construction-validated: non-zero, capped by kMaxFeedDrainPerTx —
    // basic_store.hpp): every pop costs a descriptor write entry (the
    // dequeue CAS) and, in the merge, a read entry (the re-peek of that
    // head). An unclamped poll_feed(10'000) over deep feeds would
    // deterministically Capacity-abort — which the retry policy treats as
    // transient — and spin. "Up to max_entries" permits returning fewer;
    // drain loops just call again.
    max_entries = std::min(max_entries, cfg_.feed_drain_per_tx);
    std::vector<FeedItem> out;
    // Per-call scratch, reused across calls (sized by shard count).
    thread_local std::vector<std::optional<FeedItem>> heads;
    thread_local std::vector<std::size_t> polled;
    cross_exec([&] {
      out.clear();
      heads.assign(n, std::nullopt);
      polled.assign(n, 0);
      std::size_t nonempty = 0, last = n;
      for (std::size_t i = 0; i < n; i++) {
        heads[i] = shards_[i].store->feed_queue().peek();
        if (heads[i]) {
          nonempty++;
          last = i;
        }
      }
      if (nonempty == 1) {
        // Emptiness of every other shard is transactional evidence from
        // the peeks above, so a straight FIFO drain of the one live queue
        // IS the merged order.
        auto& q = shards_[last].store->feed_queue();
        while (out.size() < max_entries) {
          auto e = q.dequeue();
          if (!e) break;
          out.push_back(*e);
          polled[last]++;
        }
      } else if (nonempty > 1) {
        while (out.size() < max_entries) {
          std::size_t best = n;
          for (std::size_t i = 0; i < n; i++) {
            if (heads[i] &&
                (best == n || heads[i]->seq < heads[best]->seq)) {
              best = i;
            }
          }
          if (best == n) break;  // every feed drained
          auto& q = shards_[best].store->feed_queue();
          auto e = q.dequeue();
          if (!e) break;  // peeked head stolen: tx is doomed, stop merging
          out.push_back(*e);
          polled[best]++;
          heads[best] = q.peek();
        }
      }
      for (std::size_t i = 0; i < n; i++) {
        shards_[i].store->defer_feed_poll_accounting(polled[i]);
      }
    });
    return out;
  }

  /// Per-shard tap: drain up to `max_entries` from the feed of the shard
  /// that owns `k`, entirely inside that shard's manager (no cross-shard
  /// transaction, no merge). This is the hot-path replication pattern for
  /// a sharded store — each shard ships its own change stream and a
  /// total-order consumer uses poll_feed() — and what the YCSB mutators
  /// use to tap the feed they just appended to.
  std::vector<FeedItem> poll_feed_local(const K& k,
                                        std::size_t max_entries) {
    return home(k).poll_feed(max_entries);
  }

  std::uint64_t feed_depth() const {
    std::uint64_t d = 0;
    for (const Slot& s : shards_) d += s.store->feed_depth();
    return d;
  }

  // ---- introspection -----------------------------------------------------

  /// Aggregate across all shards plus the cross-shard transaction block.
  StoreStats::Snapshot stats() const {
    StoreStats::Snapshot agg = cross_stats_.aggregate();
    for (const Slot& s : shards_) agg += s.store->stats();
    return agg;
  }

  /// The calling thread's exact counters (same aggregation).
  StoreStats::Snapshot stats_mine() const {
    StoreStats::Snapshot agg = cross_stats_.mine();
    for (const Slot& s : shards_) agg += s.store->stats_mine();
    return agg;
  }

  StoreStats::Snapshot stats_shard(std::size_t i) const {
    return shards_[i].store->stats();
  }

  /// Group commits (combiner batches and apply_batch chunks) and the ops
  /// they carried, summed over every shard.
  std::uint64_t combined_batches() const { return stats().combined_batches; }
  std::uint64_t combined_ops() const { return stats().combined_ops; }
  StoreStats::Snapshot stats_cross() const {
    return cross_stats_.aggregate();
  }

  /// Committed key count per shard (insert/remove deltas from
  /// store_stats.hpp, exact between quiescent points): the imbalance
  /// observable — a hot range on a range-partitioned store, or a broken
  /// hash on a hash-partitioned one, shows up here before it shows up as
  /// tail latency.
  std::vector<std::uint64_t> key_counts() const {
    std::vector<std::uint64_t> out;
    out.reserve(shards_.size());
    for (const Slot& s : shards_) out.push_back(s.store->stats().key_count());
    return out;
  }

  /// Store-wide Prometheus exposition: every shard's series (shard="i")
  /// plus the cross-shard block (shard="cross"), one registry. Empty when
  /// StoreConfig::metrics is off.
  std::string dump_metrics() const {
    return registry_ ? registry_->prometheus() : std::string{};
  }
  std::string dump_metrics_json() const {
    return registry_ ? registry_->json() : std::string{"[]"};
  }
  const std::shared_ptr<obs::MetricsRegistry>& metrics_registry() const {
    return registry_;
  }

  /// Shared tx-lifecycle ring (all shards + cross-shard transactions emit
  /// into it); null when trace_capacity == 0.
  const std::shared_ptr<obs::TraceRing>& trace_ring() const {
    return trace_ring_;
  }
  std::string dump_trace() const {
    return trace_ring_ ? trace_ring_->dump_text() : std::string{};
  }

 protected:
  struct Slot {
    std::unique_ptr<core::TxManager> mgr;
    std::unique_ptr<Shard> store;
  };

  explicit ShardedStoreBase(std::size_t nshards, StoreConfig cfg = {})
      : domain_(std::make_shared<core::TxDomain>()),
        cfg_(validated(cfg)),  // throws on feed_drain_per_tx = 0, clamps
        cross_exec_(cfg.tx_policy) {
    if (nshards == 0) {
      throw std::invalid_argument("sharded store: nshards must be > 0");
    }
    // One registry / one trace ring for the whole store: every shard
    // registers its series with a shard="i" label into the shared
    // registry, so dump_metrics() is store-wide and per-shard skew is
    // directly visible; the shared ring lands cross-shard lifecycles in
    // one timeline. Must run before shards are built.
    init_observability();
    // Split the configured primary capacity across shards (the key space
    // is partitioned, not replicated), with a floor for tiny configs.
    // Shards start from the validated copy, so every layer agrees on the
    // effective feed_drain_per_tx.
    StoreConfig shard_cfg = cfg_;
    shard_cfg.buckets = std::max<std::size_t>(cfg_.buckets / nshards, 64);
    shard_cfg.metrics_registry = registry_;
    shard_cfg.trace_ring = trace_ring_;
    shards_.reserve(nshards);
    for (std::size_t i = 0; i < nshards; i++) {
      shard_cfg.metric_labels = cfg_.metric_labels;
      if (registry_ || trace_ring_) {
        shard_cfg.metric_labels.emplace_back("shard", std::to_string(i));
      }
      auto mgr = std::make_unique<core::TxManager>(domain_);
      auto store = std::make_unique<Shard>(mgr.get(), shard_cfg);
      store->share_feed_sequencer(&feed_seq_);
      shards_.push_back(Slot{std::move(mgr), std::move(store)});
    }
  }

  /// Observability plumbing shared with the shards (see the ctor): the
  /// cross-shard executor gets op="cross",shard="cross" instruments so
  /// cross-shard latency/aborts are separable from per-shard traffic.
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
    }
    if (!registry_ && !trace_ring_) return;
    TxPolicy p = cfg_.tx_policy;
    p.trace = trace_ring_.get();
    if (registry_) {
      obs::Labels base = cfg_.metric_labels;
      base.emplace_back("shard", "cross");
      auto with = [&](const char* k, const std::string& v) {
        obs::Labels l = base;
        l.emplace_back(k, v);
        return l;
      };
      cross_ops_ = &registry_->counter("medley_store_ops_total",
                                       "Completed top-level store operations",
                                       with("op", "cross"));
      p.latency_hist = &registry_->histogram(
          "medley_store_op_latency_ns",
          "End-to-end latency of top-level store operations (ns)",
          with("op", "cross"));
      p.attempts_hist = &registry_->histogram(
          "medley_store_op_attempts",
          "Transaction attempts consumed per top-level operation",
          with("op", "cross"));
      static constexpr const char* kReasons[] = {"conflict", "validation",
                                                 "capacity", "user"};
      for (int r = 0; r < 4; r++) {
        cross_abort_counters_[r] = &registry_->counter(
            "medley_store_aborts_total",
            "Aborted transaction attempts by reason", with("reason", kReasons[r]));
      }
      cross_retries_ = &registry_->counter(
          "medley_store_tx_retries_total",
          "Aborted attempts that were re-run under the store's policy", base);
      cross_ro_fallback_[0] = &registry_->counter(
          "medley_store_ro_fallbacks_total",
          "Read-only snapshot attempts that fell back to a full transaction",
          with("kind", "write"));
      cross_ro_fallback_[1] = &registry_->counter(
          "medley_store_ro_fallbacks_total",
          "Read-only snapshot attempts that fell back to a full transaction",
          with("kind", "validation"));
    }
    cross_exec_ = TxExecutor(std::move(p));
  }

  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const { return static_cast<const Derived&>(*this); }

  Shard& home(const K& k) { return *shards_[derived().shard_of(k)].store; }

  /// Root manager for cross-shard transactions. Shard 0 by convention:
  /// cross-shard commits/aborts are billed there at the TxManager level
  /// (store-level accounting lands in cross_stats_ regardless).
  core::TxManager* root_mgr() { return shards_[0].mgr.get(); }

  /// One transaction spanning shards — exactly transact()'s choreography
  /// (flat-nest, or the cross-shard executor rooted at shard 0 with the
  /// outcome recorded into cross_stats_).
  template <typename Body>
  void cross_exec(Body&& body) {
    (void)transact(std::forward<Body>(body));
  }

  /// cross_exec() for bodies declared read-only (merged range/scan): with
  /// StoreConfig::read_only_reads set, the cross-shard transaction takes
  /// the executor's validation-free snapshot path (execute_ro, rooted at
  /// shard 0 like every cross-shard transaction) with the transparent
  /// full-transaction fallback; with the knob off it is exactly
  /// cross_exec(). Each shard store's ops flat-nest into the ambient
  /// snapshot, so their reads join one log validated once — the merged
  /// result is one consistent snapshot across all shards.
  template <typename Body>
  void cross_exec_ro(Body&& body) {
    if (domain_->in_tx()) {  // flat-nest into an ambient transaction
      body();
      return;
    }
    if (!cfg_.read_only_reads) {
      cross_exec(std::forward<Body>(body));
      return;
    }
    auto res = cross_exec_.execute_ro(*root_mgr(), std::forward<Body>(body));
    if (registry_) note_cross_result(res);
    cross_stats_.record(res.stats);
    rethrow_failed_non_user(res);
  }

  /// If every key lands on one shard, its index.
  std::optional<std::size_t> single_shard_of(
      const std::vector<std::pair<K, V>>& kvs) const {
    const std::size_t s0 = derived().shard_of(kvs.front().first);
    for (const auto& [k, v] : kvs) {
      if (derived().shard_of(k) != s0) return std::nullopt;
    }
    return s0;
  }

  /// Registry-side accounting of one resolved cross-shard execute (the
  /// sharded twin of BasicMedleyStore::bill).
  template <typename R>
  void note_cross_result(const TxResult<R>& res) {
    cross_ops_->inc();
    const TxStats& s = res.stats;
    if (s.conflict_aborts) cross_abort_counters_[0]->inc(s.conflict_aborts);
    if (s.validation_aborts) cross_abort_counters_[1]->inc(s.validation_aborts);
    if (s.capacity_aborts) cross_abort_counters_[2]->inc(s.capacity_aborts);
    if (s.user_aborts) cross_abort_counters_[3]->inc(s.user_aborts);
    if (s.retries) cross_retries_->inc(s.retries);
    if (res.ro_fallback) {
      cross_ro_fallback_[*res.ro_fallback == ROFallback::kWrite ? 0 : 1]
          ->inc();
    }
  }

  std::shared_ptr<core::TxDomain> domain_;
  StoreConfig cfg_;         // as configured (shards get the split-bucket copy)
  TxExecutor cross_exec_;   // cross-shard transactions, same policy as shards
  std::vector<Slot> shards_;
  std::atomic<std::uint64_t> feed_seq_{0};
  StoreStats cross_stats_;

  // Observability (init_observability): one registry / ring shared with
  // every shard; cross-shard instruments resolved once.
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::shared_ptr<obs::TraceRing> trace_ring_;
  obs::Counter* cross_ops_ = nullptr;
  obs::Counter* cross_abort_counters_[4] = {};
  obs::Counter* cross_retries_ = nullptr;
  obs::Counter* cross_ro_fallback_[2] = {};  // write, validation
};

}  // namespace medley::store
