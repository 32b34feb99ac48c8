// Group commit: flat combining (core/combiner.hpp + StoreConfig::combining)
// and wave-native batch apply (BasicMedleyStore::apply_batch + the wire
// adapter's staged runs). Contracts under test:
//   C1  semantics: combined put/del/rmw and apply_batch runs return and
//       apply exactly what the eager path would — a group IS one
//       transaction (all-or-nothing), and every op gets ITS result;
//   C2  handoff: a waiter whose op was executed by another thread's batch
//       completes without ever taking the combiner lock, pinned by a
//       schedule and under churn;
//   C3  invariants: the store's I1-I3 (primary/secondary/feed mutual
//       consistency) hold with combining on and apply_batch runs mixed
//       in, including at 8 threads;
//   C4  billing: N grouped ops read as exactly N logical ops in StoreStats
//       and the metrics registry (the group bills its aborts once and one
//       commit per op), plus one combined batch per group commit — per
//       combiner batch, per apply_batch chunk per shard — and the
//       batch-size histogram is visible in dump_metrics();
//   C5  validation: the combining knobs obey the feed_drain_per_tx
//       contract (zero throws, over-cap clamps, config() reports the
//       effective values);
//   C6  apply_batch: chunks of at most kMaxCombinedBatch ops commit as one
//       transaction each, and a chunk that cannot commit fails alone;
//   C7  wave staging (net::StoreAdapter): a run applies exactly once, on
//       its first resolve, never mixes two adapters, and is discarded
//       when all its futures were dropped unresolved.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "store/range_sharded_store.hpp"
#include "store/sharded_store.hpp"
#include "store/store.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::TransactionAborted;
using medley::TxManager;
using medley::TxPolicy;
using medley::store::MedleyStore;
using medley::store::RangeShardedMedleyStore;
using medley::store::ShardedMedleyStore;
using medley::store::StoreConfig;
using Store = MedleyStore<std::uint64_t, std::uint64_t>;
using Sharded = ShardedMedleyStore<std::uint64_t, std::uint64_t>;
using Op = Store::Op;
using Mutation = Store::Mutation;

namespace h = medley::test::harness;
using medley::test::primary_maps_live_nodes;

namespace {

StoreConfig comb_cfg(std::size_t buckets = 128) {
  StoreConfig cfg;
  cfg.buckets = buckets;
  cfg.combining.enabled = true;
  return cfg;
}

Op put_op(std::uint64_t k, std::uint64_t v) {
  return Op{Mutation{Mutation::kPut, k, v}};
}
Op del_op(std::uint64_t k) { return Op{Mutation{Mutation::kDel, k}}; }

/// An rmw op carrying `f` type-erased, the way read_modify_write builds
/// one; `f` must outlive the apply_batch call.
template <typename F>
Op rmw_op(std::uint64_t k, F& f) {
  Op op{Mutation{Mutation::kRmw, k}};
  op.req.ctx = &f;
  op.req.fn = [](const void* ctx, const std::optional<std::uint64_t>& cur) {
    return std::optional<std::uint64_t>(
        (*static_cast<F*>(const_cast<void*>(ctx)))(cur));
  };
  return op;
}

/// A pinned conflict: the rmw callback parks until thread B — started by
/// conflict() — has committed `key` = 100 through a second manager of the
/// same domain (bypassing combiner and apply_batch), so the transaction
/// the callback runs in must abort.
struct PinnedConflict {
  std::atomic<bool> in_callback{false};
  std::atomic<bool> b_committed{false};

  std::optional<std::uint64_t> operator()(
      const std::optional<std::uint64_t>& cur) {
    in_callback.store(true, std::memory_order_release);
    while (!b_committed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return cur.value_or(0) + 1;
  }

  std::thread conflict(TxManager& mgr2, Store& s, std::uint64_t key) {
    return std::thread([this, &mgr2, &s, key] {
      while (!in_callback.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      medley::execute_tx(mgr2, [&] { s.put(key, 100); });
      b_committed.store(true, std::memory_order_release);
    });
  }
};

}  // namespace

// ---- C5: StoreConfig::combining validation --------------------------------

TEST(CombiningConfig, ZeroSlotsThrows) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg();
  cfg.combining.slots = 0;
  EXPECT_THROW(Store(&mgr, cfg), std::invalid_argument);
  EXPECT_THROW((Sharded(2, cfg)), std::invalid_argument);
}

TEST(CombiningConfig, ZeroMaxBatchThrows) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg();
  cfg.combining.max_batch = 0;
  EXPECT_THROW(Store(&mgr, cfg), std::invalid_argument);
}

TEST(CombiningConfig, OverCapKnobsClampWithContract) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg();
  cfg.combining.slots = medley::core::kMaxCombinerSlots * 4;
  cfg.combining.max_batch = medley::core::kMaxCombinedBatch * 100;
  Store s(&mgr, cfg);
  EXPECT_EQ(s.config().combining.slots, medley::core::kMaxCombinerSlots)
      << "config() must report the clamped, effective slot count";
  EXPECT_EQ(s.config().combining.max_batch, medley::core::kMaxCombinedBatch)
      << "config() must report the clamped, effective batch cap";

  // max_batch can also never exceed the slot count.
  StoreConfig tiny = comb_cfg();
  tiny.combining.slots = 4;
  tiny.combining.max_batch = 32;
  TxManager mgr2;
  Store t(&mgr2, tiny);
  EXPECT_EQ(t.config().combining.max_batch, 4u);

  // Shards inherit the validated copy.
  Sharded sh(2, cfg);
  EXPECT_EQ(sh.shard(0).config().combining.slots,
            medley::core::kMaxCombinerSlots);
  EXPECT_EQ(sh.shard(0).config().combining.max_batch,
            medley::core::kMaxCombinedBatch);

  // Combining off: the knobs are inert, nothing throws.
  StoreConfig off;
  off.combining.slots = 0;
  TxManager mgr3;
  Store u(&mgr3, off);
  EXPECT_EQ(u.combined_batches(), 0u);
}

// ---- C1: semantics --------------------------------------------------------

TEST(Combining, SingleThreadSemanticsMatchOracle) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(64);
  cfg.metrics = true;
  cfg.metrics_sample_shift = 0;
  Store s(&mgr, cfg);
  std::map<std::uint64_t, std::uint64_t> oracle;
  medley::util::Xoshiro256 rng(7);
  std::uint64_t mutations = 0;

  for (int i = 0; i < 600; i++) {
    const std::uint64_t k = rng.next_bounded(32);
    switch (rng.next_bounded(3)) {
      case 0: {
        const std::uint64_t v = rng.next_bounded(1u << 20);
        auto it = oracle.find(k);
        std::optional<std::uint64_t> want =
            it == oracle.end() ? std::nullopt
                               : std::optional<std::uint64_t>(it->second);
        EXPECT_EQ(s.put(k, v), want);
        oracle[k] = v;
        mutations++;
        break;
      }
      case 1: {
        auto it = oracle.find(k);
        std::optional<std::uint64_t> want =
            it == oracle.end() ? std::nullopt
                               : std::optional<std::uint64_t>(it->second);
        EXPECT_EQ(s.del(k), want);
        if (it != oracle.end()) oracle.erase(it);
        mutations++;
        break;
      }
      default: {
        auto got = s.read_modify_write(
            k, [](const std::optional<std::uint64_t>& c) {
              return std::optional<std::uint64_t>(c.value_or(0) + 1);
            });
        auto it = oracle.find(k);
        const std::uint64_t want =
            (it == oracle.end() ? 0 : it->second) + 1;
        EXPECT_EQ(got, std::optional<std::uint64_t>(want));
        oracle[k] = want;
        mutations++;
        break;
      }
    }
  }
  // Single-threaded, every mutation self-combined as a batch of one —
  // still N logical ops, each billing exactly one commit (no reads ran
  // yet, so the commit count is exactly the mutation count).
  EXPECT_EQ(s.combined_ops(), mutations);
  EXPECT_EQ(s.combined_batches(), mutations);
  EXPECT_EQ(s.stats().commits, mutations);
  for (const auto& [k, v] : oracle) {
    EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(v));
  }
  EXPECT_TRUE(primary_maps_live_nodes(s));
  // C4: the batch-size histogram is part of the exposition.
  const std::string prom = s.dump_metrics();
  EXPECT_NE(prom.find("medley_store_combined_batch"), std::string::npos);
  EXPECT_NE(prom.find("medley_store_combined_ops_total"), std::string::npos);
}

TEST(Combining, RmwCallbackExceptionFailsOnlyItsOp) {
  TxManager mgr;
  Store s(&mgr, comb_cfg(64));
  s.put(5, 50);
  auto boom = [](const std::optional<std::uint64_t>&)
      -> std::optional<std::uint64_t> {
    throw std::runtime_error("user callback");
  };

  // One group commit holding a put and a throwing rmw: the rmw's op fails
  // alone, the group (and the put in it) commits.
  std::vector<Op> run = {put_op(6, 60), rmw_op(5, boom)};
  s.apply_batch(run);
  EXPECT_FALSE(run[0].err);
  EXPECT_FALSE(run[0].res.has_value());  // 6 was absent
  ASSERT_TRUE(run[1].err);
  EXPECT_THROW(std::rethrow_exception(run[1].err), std::runtime_error);
  EXPECT_EQ(s.get(5), std::optional<std::uint64_t>(50)) << "failed rmw leaked";
  EXPECT_EQ(s.get(6), std::optional<std::uint64_t>(60));
  EXPECT_EQ(s.combined_ops(), 2u) << "the put(5) batch + the put(6); the "
                                     "failed rmw is not billed";

  // The same callback through the combiner: rethrown to its caller.
  EXPECT_THROW(s.read_modify_write(5, boom), std::runtime_error);
  EXPECT_EQ(s.get(5), std::optional<std::uint64_t>(50));
  EXPECT_TRUE(primary_maps_live_nodes(s));
}

// ---- C1/C3: batch atomicity under a pinned conflict -----------------------

TEST(Combining, ConflictMidBatchRetriesWholeBatch) {
  // Thread A's combined rmw parks inside its user callback while thread B
  // commits a conflicting write through a second manager of the same
  // domain (bypassing the combiner). A's batch transaction must abort and
  // re-run AS A WHOLE, and the retried rmw must see B's value — the
  // combined op linearizes after the conflicting commit.
  auto domain = std::make_shared<medley::core::TxDomain>();
  TxManager mgr(domain);
  TxManager mgr2(domain);
  Store s(&mgr, comb_cfg(64));
  constexpr std::uint64_t kKey = 3;
  PinnedConflict pin;
  std::thread b = pin.conflict(mgr2, s, kKey);
  auto got = s.read_modify_write(kKey, pin);
  b.join();

  // First attempt read kKey as absent and lost to B; the retry read 100.
  EXPECT_EQ(got, std::optional<std::uint64_t>(101));
  EXPECT_EQ(s.get(kKey), std::optional<std::uint64_t>(101));
  const auto st = s.stats();
  EXPECT_GE(st.conflict_aborts + st.validation_aborts, 1u)
      << "the batch transaction never observed the conflict";
  // Feed order == serialization order: B's 100 strictly before A's 101.
  auto feed = s.poll_feed(16);
  ASSERT_EQ(feed.size(), 2u);
  EXPECT_EQ(feed[0].val, 100u);
  EXPECT_EQ(feed[1].val, 101u);
  EXPECT_TRUE(primary_maps_live_nodes(s));
}

TEST(Combining, BoundedPolicyAbortsWholeBatchAllOrNothing) {
  // A pinned conflict inside a one-chunk run, under a policy that grants
  // ONE attempt: the group — a parked rmw plus two puts — terminally
  // aborts, and ALL THREE ops must fail together with nothing visible.
  auto domain = std::make_shared<medley::core::TxDomain>();
  TxManager mgr(domain);
  TxManager mgr2(domain);
  StoreConfig cfg = comb_cfg(64);
  cfg.tx_policy = TxPolicy::bounded(1);
  Store s(&mgr, cfg);
  constexpr std::uint64_t kKey = 3;
  PinnedConflict pin;
  std::thread b = pin.conflict(mgr2, s, kKey);

  std::vector<Op> run = {put_op(70, 7), put_op(71, 7), rmw_op(kKey, pin)};
  s.apply_batch(run);
  b.join();
  for (const Op& op : run) {
    ASSERT_TRUE(op.err);
    EXPECT_THROW(std::rethrow_exception(op.err), TransactionAborted);
  }

  // All-or-nothing: only B's write exists.
  EXPECT_EQ(s.get(kKey), std::optional<std::uint64_t>(100));
  EXPECT_FALSE(s.get(70).has_value());
  EXPECT_FALSE(s.get(71).has_value());
  auto feed = s.poll_feed(16);
  ASSERT_EQ(feed.size(), 1u);
  EXPECT_EQ(feed[0].val, 100u);
  EXPECT_EQ(s.combined_batches(), 0u) << "a failed group is no group commit";
  EXPECT_TRUE(primary_maps_live_nodes(s));
}

// ---- C2: handoff ----------------------------------------------------------

TEST(Combining, SchedulePinnedHandoffDeliversResultWithoutLock) {
  // t0 publishes without waiting (try_publish takes no lock); t1's
  // blocking submit becomes the combiner and drains BOTH ops as one
  // batch; t0 then waits on a slot that is already done and harvests a
  // result it never computed — the handoff. Deterministic via the
  // schedule driver (t1's submit combines its own batch, so no step
  // blocks on another thread's step).
  using Comb = medley::core::FlatCombiner<std::uint64_t, std::uint64_t>;
  medley::obs::TraceRing ring(256);
  Comb comb(8, 8, &ring);
  std::vector<std::size_t> batches;
  auto exec = [&](std::vector<Comb::Slot*>& batch) {
    batches.push_back(batch.size());
    for (Comb::Slot* slot : batch) slot->op.res = slot->op.req * 10;
  };
  Comb::Slot* slot = nullptr;
  std::uint64_t harvested = 0;
  std::uint64_t own = 0;

  h::ScheduleDriver d;
  d.add_thread({
      [&] { slot = comb.try_publish(1); },
      [&] {
        comb.wait(slot, exec);
        harvested = comb.consume(slot);
      },
  });
  d.add_thread({
      [&] { own = comb.submit(2, exec); },
  });
  d.run({0, 1, 0});

  EXPECT_EQ(harvested, 10u);
  EXPECT_EQ(own, 20u);
  EXPECT_EQ(batches, std::vector<std::size_t>{2})
      << "both ops must share one batch";
  bool saw_handoff = false;
  for (const auto& e : ring.dump()) {
    if (e.kind == medley::obs::TraceEvent::kCombineHandoff) {
      saw_handoff = true;
    }
  }
  EXPECT_TRUE(saw_handoff);
}

TEST(Combining, HandoffUnderChurn) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(128);
  cfg.trace_capacity = 1024;
  Store s(&mgr, cfg);
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  constexpr std::uint64_t kKeys = 16;  // hot: force real batching

  h::run_seeded(kThreads, 1234, [&](int t, medley::util::Xoshiro256& rng) {
    (void)t;
    for (int i = 0; i < kOps; i++) {
      const std::uint64_t k = rng.next_bounded(kKeys);
      if (rng.next_bounded(2) == 0) {
        s.put(k, rng.next_bounded(1u << 16));
      } else {
        s.read_modify_write(k, [](const std::optional<std::uint64_t>& c) {
          return std::optional<std::uint64_t>(c.value_or(0) + 1);
        });
      }
    }
  });

  // Every mutation went through the combiner and completed: exactly N
  // logical commits (C4), and since batches can hold several ops, at
  // most as many batches as ops.
  const std::uint64_t total = kThreads * kOps;
  EXPECT_EQ(s.combined_ops(), total);
  EXPECT_LE(s.combined_batches(), total);
  EXPECT_GT(s.combined_batches(), 0u);
  EXPECT_EQ(s.stats().commits, total);
  EXPECT_EQ(s.stats().feed_pushed, total);
  bool saw_batch = false;
  for (const auto& e : s.trace_ring()->dump()) {
    if (e.kind == medley::obs::TraceEvent::kCombineBatch) saw_batch = true;
  }
  EXPECT_TRUE(saw_batch);
  EXPECT_TRUE(primary_maps_live_nodes(s));
}

// ---- C3: the store invariants at 8 threads with combining on --------------

TEST(Combining, MixedWorkloadMutualConsistency8Threads) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(128);
  cfg.metrics = true;
  Store s(&mgr, cfg);
  constexpr std::uint64_t kKeys = 48;
  constexpr int kOps = 700;
  std::atomic<bool> torn{false};
  std::vector<medley::store::FeedEntry<std::uint64_t, std::uint64_t>> log;

  h::run_seeded(8, 4242, [&](int t, medley::util::Xoshiro256& rng) {
    if (t < 5) {  // mutators: combined sync ops + apply_batch runs
      for (int i = 0; i < kOps; i++) {
        const auto k = rng.next_bounded(kKeys);
        switch (rng.next_bounded(4)) {
          case 0:
            s.put(k, rng.next_bounded(1u << 20));
            break;
          case 1:
            s.del(k);
            break;
          case 2:
            s.read_modify_write(k, [](const std::optional<std::uint64_t>& c) {
              return std::optional<std::uint64_t>(c.value_or(0) + 1);
            });
            break;
          default: {  // a two-op run, one group commit
            std::vector<Op> run = {put_op(k, k * 3),
                                   put_op((k + 7) % kKeys, k * 3)};
            s.apply_batch(run);
            i++;  // two logical ops
            break;
          }
        }
      }
    } else if (t == 7) {  // feed consumer
      for (int i = 0; i < kOps; i++) {
        auto batch = s.poll_feed(8);
        log.insert(log.end(), batch.begin(), batch.end());
      }
    } else {  // readers: committed cross-index snapshots (I3)
      for (int i = 0; i < kOps; i++) {
        const auto k = rng.next_bounded(kKeys);
        std::optional<std::uint64_t> p;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> r;
        medley::execute_tx(mgr, [&] {
          p = s.get(k);
          r = s.range(k, k);
        });
        const bool in_secondary = !r.empty();
        if (p.has_value() != in_secondary) torn.store(true);
        if (p && in_secondary && *p != r[0].second) torn.store(true);
        auto window = s.scan(k, 8);
        for (std::size_t j = 1; j < window.size(); j++) {
          if (!(window[j - 1].first < window[j].first)) torn.store(true);
        }
      }
    }
  });

  EXPECT_FALSE(torn.load()) << "a committed snapshot saw torn indexes";
  EXPECT_TRUE(primary_maps_live_nodes(s));

  // I2 at scale: polled prefix + final drain replays to the primary.
  for (;;) {
    auto batch = s.poll_feed(64);
    if (batch.empty()) break;
    log.insert(log.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(s.feed_depth(), 0u);
  std::map<std::uint64_t, std::uint64_t> replayed;
  medley::store::replay_feed(log, replayed);
  std::map<std::uint64_t, std::uint64_t> primary_now;
  for (const auto& [k, v] : s.range(0, ~0ULL)) primary_now[k] = v;
  EXPECT_EQ(replayed, primary_now);

  const auto st = s.stats();
  EXPECT_GT(st.commits, 0u);
  EXPECT_EQ(st.feed_pushed, log.size());
  EXPECT_EQ(st.feed_polled, log.size());
  EXPECT_GT(s.combined_ops(), 0u);
}

// ---- C4: billing exactness ------------------------------------------------

TEST(Combining, StatsBillNCombinedOpsAsNLogicalOps) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(256);
  cfg.metrics = true;
  cfg.metrics_sample_shift = 0;
  Store s(&mgr, cfg);
  constexpr int kThreads = 4;
  constexpr int kOps = 500;

  h::run_seeded(kThreads, 99, [&](int t, medley::util::Xoshiro256& rng) {
    for (int i = 0; i < kOps; i++) {
      s.put(static_cast<std::uint64_t>(t) * kOps + i, rng.next());
    }
  });

  constexpr std::uint64_t total = kThreads * kOps;
  const auto st = s.stats();
  EXPECT_EQ(st.commits, total) << "each combined op bills exactly 1 commit";
  EXPECT_EQ(st.feed_pushed, total);
  EXPECT_EQ(st.key_count(), total);
  EXPECT_EQ(s.combined_ops(), total)
      << "every top-level mutation routes through the combiner";
  EXPECT_LE(s.combined_batches(), s.combined_ops());

  // Registry view agrees: ops_total{op="put"} == N, combined_ops_total
  // == N (batches themselves never inflate the logical op count).
  const std::string json = s.dump_metrics_json();
  EXPECT_NE(json.find("medley_store_combined_ops_total"), std::string::npos);
  const std::string prom = s.dump_metrics();
  EXPECT_NE(
      prom.find("medley_store_ops_total{op=\"put\"} " + std::to_string(total)),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("medley_store_combined_ops_total " +
                      std::to_string(total)),
            std::string::npos)
      << prom;
}

// ---- C6: apply_batch ------------------------------------------------------

/// Random PUT/DEL runs through apply_batch agree op by op with a
/// sequential std::map oracle, on any store flavor.
template <typename S>
void apply_batch_matches_oracle(S& s, std::uint64_t seed) {
  std::map<std::uint64_t, std::uint64_t> oracle;
  medley::util::Xoshiro256 rng(seed);
  for (int round = 0; round < 40; round++) {
    std::vector<Op> run;
    std::vector<std::optional<std::uint64_t>> want;
    const std::size_t len = 1 + rng.next_bounded(150);  // 1..3 chunks
    for (std::size_t i = 0; i < len; i++) {
      const std::uint64_t k = rng.next_bounded(40);
      auto it = oracle.find(k);
      want.push_back(it == oracle.end()
                         ? std::nullopt
                         : std::optional<std::uint64_t>(it->second));
      if (rng.next_bounded(3) == 0) {
        run.push_back(del_op(k));
        oracle.erase(k);
      } else {
        const std::uint64_t v = rng.next_bounded(1u << 20);
        run.push_back(put_op(k, v));
        oracle[k] = v;
      }
    }
    s.apply_batch(run);
    for (std::size_t i = 0; i < len; i++) {
      ASSERT_FALSE(run[i].err) << "round " << round << " op " << i;
      ASSERT_EQ(run[i].res, want[i]) << "round " << round << " op " << i;
    }
  }
  for (std::uint64_t k = 0; k < 40; k++) {
    auto it = oracle.find(k);
    EXPECT_EQ(s.get(k), it == oracle.end()
                            ? std::nullopt
                            : std::optional<std::uint64_t>(it->second))
        << "key " << k;
  }
}

TEST(ApplyBatch, PutDelResultsMatchMapOracle) {
  TxManager mgr;
  Store plain(&mgr, StoreConfig{});
  apply_batch_matches_oracle(plain, 11);
  EXPECT_TRUE(primary_maps_live_nodes(plain));

  Sharded sharded(3, StoreConfig{});  // runs split across shards
  apply_batch_matches_oracle(sharded, 12);
}

TEST(ApplyBatch, RunOf200CommitsAsFourChunks) {
  TxManager mgr;
  Store s(&mgr, StoreConfig{});
  s.put(1'000'000, 1);  // eager, combining off: no group commit
  const auto before = s.stats();
  ASSERT_EQ(s.combined_batches(), 0u);

  std::vector<Op> run;
  for (std::uint64_t k = 0; k < 200; k++) run.push_back(put_op(k, k + 1));
  s.apply_batch(run);

  for (const Op& op : run) EXPECT_FALSE(op.err);
  // 64 + 64 + 64 + 8: four transactions, none Capacity-aborted.
  EXPECT_EQ(s.combined_batches(), 4u);
  EXPECT_EQ(s.combined_ops(), 200u);
  const auto after = s.stats();
  EXPECT_EQ(after.capacity_aborts - before.capacity_aborts, 0u);
  EXPECT_EQ(after.commits - before.commits, 200u);
  EXPECT_EQ(after.feed_pushed - before.feed_pushed, 200u);
  EXPECT_EQ(s.get(199), std::optional<std::uint64_t>(200));
}

TEST(ApplyBatch, PinnedConflictFailsExactlyOneChunk) {
  // Three chunks; the middle one holds a parked rmw that a second thread
  // invalidates, under a one-attempt policy. That chunk fails as a whole
  // and leaves nothing behind; the chunks around it commit.
  auto domain = std::make_shared<medley::core::TxDomain>();
  TxManager mgr(domain);
  TxManager mgr2(domain);
  StoreConfig cfg;
  cfg.buckets = 1024;
  cfg.tx_policy = TxPolicy::bounded(1);
  Store s(&mgr, cfg);
  constexpr std::uint64_t kKey = 3;
  constexpr std::size_t kChunk = medley::core::kMaxCombinedBatch;
  PinnedConflict pin;

  std::vector<Op> run;
  for (std::uint64_t k = 0; k < kChunk; k++) run.push_back(put_op(1000 + k, k));
  for (std::uint64_t k = 0; k < kChunk - 1; k++) {
    run.push_back(put_op(2000 + k, k));
    if (k == kChunk / 2) run.push_back(rmw_op(kKey, pin));
  }
  for (std::uint64_t k = 0; k < 8; k++) run.push_back(put_op(3000 + k, k));
  ASSERT_EQ(run.size(), 2 * kChunk + 8);

  std::thread b = pin.conflict(mgr2, s, kKey);
  s.apply_batch(run);
  b.join();

  for (std::size_t i = 0; i < run.size(); i++) {
    const bool failed_chunk = i >= kChunk && i < 2 * kChunk;
    ASSERT_EQ(static_cast<bool>(run[i].err), failed_chunk) << "op " << i;
    if (failed_chunk) {
      EXPECT_THROW(std::rethrow_exception(run[i].err), TransactionAborted);
    }
  }
  for (std::uint64_t k = 0; k < kChunk - 1; k++) {
    EXPECT_FALSE(s.get(2000 + k).has_value()) << "failed chunk leaked " << k;
  }
  EXPECT_EQ(s.get(kKey), std::optional<std::uint64_t>(100)) << "B's write only";
  EXPECT_EQ(s.get(1000), std::optional<std::uint64_t>(0));
  EXPECT_EQ(s.get(3007), std::optional<std::uint64_t>(7));
  EXPECT_EQ(s.combined_batches(), 2u);
  EXPECT_EQ(s.combined_ops(), kChunk + 8);
  EXPECT_EQ(s.stats().feed_pushed, kChunk + 8 + 1);
  EXPECT_TRUE(primary_maps_live_nodes(s));
}

TEST(ApplyBatch, FlatNestsIntoAnAmbientTransaction) {
  // Inside an open transaction apply_batch is no group commit of its
  // own: its ops join the enclosing transaction and commit or abort
  // with it, like every store operation.
  TxManager mgr;
  Store s(&mgr, StoreConfig{});
  std::vector<Op> run = {put_op(1, 10), put_op(2, 20)};
  medley::execute_tx(mgr, [&] {
    s.apply_batch(run);
    mgr.txAbort();  // the enclosing transaction gives up
  });
  EXPECT_FALSE(s.get(1).has_value()) << "ops outlived their transaction";

  run = {put_op(1, 10), del_op(1)};
  medley::execute_tx(mgr, [&] { s.apply_batch(run); });
  EXPECT_FALSE(run[0].res.has_value());
  EXPECT_EQ(run[1].res, std::optional<std::uint64_t>(10));
  EXPECT_FALSE(s.get(1).has_value());
  EXPECT_EQ(s.stats().feed_pushed, 2u) << "committed with the ambient tx";
  EXPECT_EQ(s.combined_batches(), 0u);
}

TEST(ApplyBatch, BillsNCommitsAndOneBatchPerChunkPerShard) {
  StoreConfig cfg;
  cfg.metrics = true;
  cfg.metrics_sample_shift = 0;
  Sharded s(2, cfg);
  constexpr std::uint64_t kN = 150;
  std::vector<Op> run;
  std::uint64_t per_shard[2] = {0, 0};
  for (std::uint64_t k = 0; k < kN; k++) {
    run.push_back(put_op(k, k));
    per_shard[s.shard_of(k)]++;
  }
  s.apply_batch(run);

  auto chunks = [](std::uint64_t n) {
    return (n + medley::core::kMaxCombinedBatch - 1) /
           medley::core::kMaxCombinedBatch;
  };
  EXPECT_EQ(s.stats().commits, kN) << "one logical commit per op";
  EXPECT_EQ(s.combined_ops(), kN);
  EXPECT_EQ(s.combined_batches(), chunks(per_shard[0]) + chunks(per_shard[1]));
  std::uint64_t ops_total = 0;
  std::uint64_t combined_total = 0;
  auto& reg = *s.metrics_registry();
  for (int i = 0; i < 2; i++) {
    const std::string shard = std::to_string(i);
    EXPECT_EQ(s.shard(i).combined_batches(), chunks(per_shard[i]));
    ops_total += reg.counter("medley_store_ops_total", "",
                             {{"shard", shard}, {"op", "put"}})
                     .value();
    combined_total += reg.counter("medley_store_combined_ops_total", "",
                                  {{"shard", shard}})
                          .value();
  }
  EXPECT_EQ(ops_total, kN);
  EXPECT_EQ(combined_total, kN);
}

// ---- C7: wave staging in the wire adapter ---------------------------------

TEST(WaveStaging, AdapterAppliesRunOnceOnFirstResolve) {
  TxManager mgr;
  Store s(&mgr, StoreConfig{});
  medley::net::StoreAdapter<Store> a(&s);

  auto f1 = a.async_put(1, 10);
  auto f2 = a.async_put(2, 20);
  auto f3 = a.async_del(1);
  EXPECT_FALSE(s.get(2).has_value()) << "staging must not touch the store";
  EXPECT_EQ(s.combined_batches(), 0u);

  EXPECT_FALSE(f2.get().has_value());  // the first resolve applies all 3
  EXPECT_EQ(s.combined_batches(), 1u);
  EXPECT_EQ(s.combined_ops(), 3u);
  EXPECT_EQ(s.get(2), std::optional<std::uint64_t>(20));
  EXPECT_FALSE(s.get(1).has_value()) << "the run applies in staging order";
  EXPECT_FALSE(f1.get().has_value());
  EXPECT_EQ(f3.get(), std::optional<std::uint64_t>(10));
  EXPECT_EQ(s.combined_batches(), 1u) << "later resolves only read results";

  // A run applied, the next staging opens a fresh one.
  auto f4 = a.async_put(2, 21);
  EXPECT_EQ(f4.get(), std::optional<std::uint64_t>(20));
  EXPECT_EQ(s.combined_batches(), 2u);

  // Two adapters on one thread keep separate runs.
  medley::net::StoreAdapter<Store> b(&s);
  auto fa = a.async_put(5, 50);
  auto fb = b.async_put(6, 60);
  EXPECT_FALSE(fa.get().has_value());
  EXPECT_EQ(s.get(5), std::optional<std::uint64_t>(50));
  EXPECT_FALSE(s.get(6).has_value()) << "b's run rode a's apply_batch";
  EXPECT_FALSE(fb.get().has_value());
  EXPECT_EQ(s.get(6), std::optional<std::uint64_t>(60));
  EXPECT_EQ(s.combined_batches(), 4u);
}

TEST(WaveStaging, AdapterDiscardsRunWhoseFuturesWereDropped) {
  Sharded s(2, StoreConfig{});
  medley::net::StoreAdapter<Sharded> a(&s);
  {
    auto f1 = a.async_put(1, 10);
    auto f2 = a.async_put(2, 20);
  }  // both dropped unresolved
  auto f3 = a.async_put(3, 30);
  EXPECT_FALSE(f3.get().has_value());
  EXPECT_FALSE(s.get(1).has_value()) << "a dropped run was applied";
  EXPECT_FALSE(s.get(2).has_value());
  EXPECT_EQ(s.get(3), std::optional<std::uint64_t>(30));
  EXPECT_EQ(s.combined_ops(), 1u);
  EXPECT_EQ(s.stats().key_count(), 1u);
}

// ---- moved-from-request regressions (string K/V) --------------------------
// uint64_t K/V cannot catch a moved-from request (trivial types stay
// bitwise-intact after std::move); std::string goes empty, so this test
// fails loudly if the publish retry loop executes a request it already
// moved from (try_publish's contract: moved from ONLY on success).

using StrStore = MedleyStore<std::string, std::string>;

TEST(Combining, StringKVPublishRetryPreservesRequests) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(128);
  cfg.combining.slots = 1;  // every publish contends for the single slot
  StrStore s(&mgr, cfg);
  ASSERT_EQ(s.config().combining.max_batch, 1u);
  constexpr int kThreads = 4;
  constexpr int kOps = 200;

  h::run_seeded(kThreads, 31, [&](int t, medley::util::Xoshiro256& rng) {
    (void)rng;
    for (int i = 0; i < kOps; i++) {
      const std::string k = "k" + std::to_string(t) + "_" + std::to_string(i);
      if (i % 8 == 7) {
        s.del(k);  // absent delete still routes through the combiner
      } else {
        s.put(k, "v" + std::to_string(t * kOps + i));
      }
    }
  });

  // Every request that retried publish() under slot contention must have
  // arrived intact: each key maps to exactly its own value, and no empty
  // (moved-from) key was ever committed.
  EXPECT_FALSE(s.get("").has_value());
  std::uint64_t live = 0;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kOps; i++) {
      const std::string k = "k" + std::to_string(t) + "_" + std::to_string(i);
      auto v = s.get(k);
      if (i % 8 == 7) {
        EXPECT_FALSE(v.has_value()) << k;
      } else {
        ASSERT_TRUE(v.has_value()) << k;
        EXPECT_EQ(*v, "v" + std::to_string(t * kOps + i));
        live++;
      }
    }
  }
  EXPECT_EQ(s.stats().key_count(), live);
  EXPECT_EQ(s.combined_ops(), static_cast<std::uint64_t>(kThreads) * kOps);
}

// ---- sharded stores -------------------------------------------------------

TEST(Combining, ShardedPointOpsCombinePerShardCrossShardBypasses) {
  StoreConfig cfg = comb_cfg(256);
  Sharded s(4, cfg);
  constexpr int kThreads = 4;
  constexpr int kOps = 300;

  h::run_seeded(kThreads, 77, [&](int t, medley::util::Xoshiro256& rng) {
    (void)t;
    for (int i = 0; i < kOps; i++) {
      const std::uint64_t k = rng.next_bounded(64);
      if (rng.next_bounded(2) == 0) {
        s.put(k, k + 1);
      } else {
        std::vector<Op> run = {put_op(k, k + 2)};
        s.apply_batch(run);
      }
    }
  });
  // Every point mutation group-committed on its home shard.
  EXPECT_EQ(s.combined_ops(),
            static_cast<std::uint64_t>(kThreads) * kOps);

  // Cross-shard multi_put bypasses group commit (it must stay ONE atomic
  // domain transaction) yet remains all-or-nothing.
  const std::uint64_t before = s.combined_ops();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
  for (std::uint64_t k = 100; k < 116; k++) batch.emplace_back(k, k * 10);
  s.multi_put(batch);
  EXPECT_EQ(s.combined_ops(), before)
      << "cross-shard transactions must not route through group commit";
  for (std::uint64_t k = 100; k < 116; k++) {
    EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(k * 10));
  }
}

TEST(Combining, RangeShardedCombinedScanConsistency) {
  using RStore = RangeShardedMedleyStore<std::uint64_t, std::uint64_t>;
  StoreConfig cfg = comb_cfg(256);
  RStore s(RStore::Partitioner::uniform(0, 4096, 4), cfg);

  h::run_seeded(4, 5150, [&](int t, medley::util::Xoshiro256& rng) {
    (void)t;
    for (int i = 0; i < 300; i++) {
      s.put(rng.next_bounded(4096), rng.next());
    }
  });
  EXPECT_EQ(s.combined_ops(), 4u * 300u);

  // Ordered reads over the combined writes: sorted, deduplicated, and
  // primary-consistent across shard boundaries.
  auto all = s.range(0, 4096);
  for (std::size_t i = 1; i < all.size(); i++) {
    EXPECT_LT(all[i - 1].first, all[i].first);
  }
  for (const auto& [k, v] : all) {
    EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(v));
  }
}
