// ShardedMedleyStore: hash-partitioned shards (one TxManager each) under a
// shared TxDomain. Invariants under test:
//   S1  every shard satisfies the single-store invariants I1-I3 of
//       basic_store.hpp (primary == secondary, feed == serialization
//       order, no torn composite writes), and only holds keys that hash
//       to it;
//   S2  cross-shard transactions (multi_put / read_modify_write_many /
//       transact) are atomic: a committed reader transaction sees either
//       all of a cross-shard write group or none of it — including under
//       pinned interleavings that stop the writer halfway;
//   S3  the MERGED feed, replayed over an empty map, reproduces the union
//       of the shard primaries (per-shard FIFO preserved by the k-way
//       merge; see feed.hpp);
//   S4  merged range/scan return globally ordered atomic snapshots that
//       match a sequential oracle;
//   S5  stats aggregate exactly: aggregate == sum(shards) + cross block,
//       and the feed counters account for every merged entry.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "store/store.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::TransactionAborted;
using medley::store::ShardedMedleyStore;
using Store = ShardedMedleyStore<std::uint64_t, std::uint64_t>;

namespace h = medley::test::harness;

namespace {

/// S1 per shard, checked quiescently.
::testing::AssertionResult shards_mutually_consistent(Store& s) {
  for (std::size_t i = 0; i < s.shard_count(); i++) {
    auto& shard = s.shard(i);
    for (const auto& [k, node] : shard.secondary().handles_slow()) {
      if (s.shard_of(k) != i) {
        return ::testing::AssertionFailure()
               << "key " << k << " stored on shard " << i
               << " but hashes to " << s.shard_of(k);
      }
    }
    if (auto r = medley::test::primary_maps_live_nodes(shard); !r) {
      return r << " (shard " << i << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Union of the shard primaries (via the merged atomic range).
std::map<std::uint64_t, std::uint64_t> primary_union(Store& s) {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& [k, v] : s.range(0, ~0ULL)) out[k] = v;
  return out;
}

/// Two keys guaranteed to live on different shards (dense probing).
std::pair<std::uint64_t, std::uint64_t> cross_shard_pair(Store& s) {
  const std::uint64_t a = 1;
  for (std::uint64_t b = 2; b < 256; b++) {
    if (s.shard_of(b) != s.shard_of(a)) return {a, b};
  }
  return {1, 2};  // unreachable for shard_count > 1 and a sane hash
}

}  // namespace

TEST(ShardedStore, PointOpsRouteAndCompose) {
  Store s(4, {.buckets = 256});
  EXPECT_EQ(s.shard_count(), 4u);

  for (std::uint64_t k = 0; k < 64; k++) {
    EXPECT_FALSE(s.put(k, k * 10).has_value());
  }
  for (std::uint64_t k = 0; k < 64; k++) {
    EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(k * 10));
    EXPECT_LT(s.shard_of(k), 4u);
  }
  EXPECT_EQ(s.put(7, 71), std::optional<std::uint64_t>(70));
  EXPECT_EQ(s.del(8), std::optional<std::uint64_t>(80));
  EXPECT_FALSE(s.contains(8));
  EXPECT_EQ(s.read_modify_write(
                7,
                [](const std::optional<std::uint64_t>& c) {
                  return std::optional<std::uint64_t>(c.value_or(0) + 1);
                }),
            std::optional<std::uint64_t>(72));

  // Every shard took some keys (64 dense keys over 4 shards; a stuck hash
  // would put them all on one).
  int populated = 0;
  for (std::size_t i = 0; i < s.shard_count(); i++) {
    if (s.shard(i).primary().size_slow() > 0) populated++;
  }
  EXPECT_EQ(populated, 4);
  EXPECT_TRUE(shards_mutually_consistent(s));
}

TEST(ShardedStore, MergedRangeScanMatchOracle) {
  Store s(4, {.buckets = 256});
  std::map<std::uint64_t, std::uint64_t> oracle;
  medley::util::Xoshiro256 rng(77);
  for (int i = 0; i < 300; i++) {
    const std::uint64_t k = rng.next_bounded(500);
    if (rng.next_bounded(4) == 0) {
      s.del(k);
      oracle.erase(k);
    } else {
      const std::uint64_t v = rng.next();
      s.put(k, v);
      oracle[k] = v;
    }
  }

  auto r = s.range(100, 400);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
  for (auto it = oracle.lower_bound(100);
       it != oracle.end() && it->first <= 400; ++it) {
    want.emplace_back(it->first, it->second);
  }
  EXPECT_EQ(r, want);  // globally ordered, exact contents (S4)

  auto sc = s.scan(250, 17);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> want_sc;
  for (auto it = oracle.lower_bound(250);
       it != oracle.end() && want_sc.size() < 17; ++it) {
    want_sc.emplace_back(it->first, it->second);
  }
  EXPECT_EQ(sc, want_sc);
  EXPECT_TRUE(shards_mutually_consistent(s));
}

TEST(ShardedStore, MergedFeedReplaysToPrimaryUnion) {
  Store s(4, {.buckets = 256});
  s.put(1, 10);
  s.multi_put({{2, 20}, {3, 30}, {4, 40}, {5, 50}});  // spans shards
  s.put(2, 21);
  s.del(3);
  s.read_modify_write_many(
      {1, 4}, [](std::uint64_t, const std::optional<std::uint64_t>& c) {
        return std::optional<std::uint64_t>(c.value_or(0) + 5);
      });
  EXPECT_EQ(s.feed_depth(), 9u);

  auto feed = s.poll_feed(100);
  ASSERT_EQ(feed.size(), 9u);
  EXPECT_EQ(s.feed_depth(), 0u);
  EXPECT_TRUE(s.poll_feed(4).empty());

  // S3: merged replay == union of primaries.
  std::map<std::uint64_t, std::uint64_t> replayed;
  medley::store::replay_feed(feed, replayed);
  EXPECT_EQ(replayed, primary_union(s));

  // Per-key order is exact: key 2 must appear as 20 then 21.
  std::vector<std::uint64_t> key2_vals;
  for (const auto& e : feed) {
    if (e.key == 2) key2_vals.push_back(e.val);
  }
  EXPECT_EQ(key2_vals, (std::vector<std::uint64_t>{20, 21}));
  EXPECT_TRUE(shards_mutually_consistent(s));
}

TEST(ShardedStore, SchedulePinnedCrossShardMultiPutIsAtomic) {
  // The acceptance scenario: a cross-shard write group interrupted halfway
  // by a reader transaction touching BOTH shards. Eager contention
  // management finalizes (aborts) the half-done writer, so the reader must
  // see NEITHER key; had the writer finished first, it would see BOTH.
  // Never one.
  Store s(4, {.buckets = 256});
  const auto [ka, kb] = cross_shard_pair(s);
  ASSERT_NE(s.shard_of(ka), s.shard_of(kb));

  std::atomic<bool> writer_committed{false};
  std::atomic<bool> saw_a{false}, saw_b{false};
  auto* root = s.manager(s.shard_of(ka));

  h::ScheduleDriver d;
  d.add_thread({
      [&] { root->txBegin(); },
      [&] {
        try {
          s.put(ka, 111);  // flat-nests into the open domain transaction
        } catch (const TransactionAborted&) {
        }
      },
      [&] {
        try {
          s.put(kb, 222);  // discovers the forced abort, if any
        } catch (const TransactionAborted&) {
        }
      },
      [&] {
        try {
          // The reader's probe may already have finalized us; the context
          // is then torn down and there is nothing left to end.
          if (s.domain()->in_tx()) {
            root->txEnd();
            writer_committed.store(true);
          }
        } catch (const TransactionAborted&) {
        }
      },
  });
  d.add_thread({
      [&] {
        // One committed reader transaction across both shards.
        medley::execute_tx(*s.manager(0), [&] {
          saw_a.store(s.get(ka).has_value());
          saw_b.store(s.get(kb).has_value());
        });
      },
  });
  // Reader fires between the two speculative puts: half-done writer state.
  d.run({0, 0, 1, 0, 0});

  EXPECT_EQ(saw_a.load(), saw_b.load())
      << "reader observed a torn cross-shard multi_put";
  // The reader's mid-flight probe finalizes the InPrep writer: it cannot
  // commit afterwards, and nothing of the group may remain visible.
  EXPECT_FALSE(writer_committed.load());
  EXPECT_FALSE(saw_a.load());
  EXPECT_FALSE(s.contains(ka));
  EXPECT_FALSE(s.contains(kb));
  EXPECT_TRUE(s.poll_feed(10).empty()) << "aborted group leaked a feed entry";

  // Control schedule: the same group runs to completion first; a reader
  // transaction then sees the WHOLE group.
  std::atomic<bool> saw_a2{false}, saw_b2{false};
  h::ScheduleDriver d2;
  d2.add_thread({[&] { s.multi_put({{ka, 111}, {kb, 222}}); }});
  d2.add_thread({[&] {
    medley::execute_tx(*s.manager(0), [&] {
      saw_a2.store(s.get(ka).has_value());
      saw_b2.store(s.get(kb).has_value());
    });
  }});
  d2.run({0, 1});
  EXPECT_TRUE(saw_a2.load());
  EXPECT_TRUE(saw_b2.load());
  EXPECT_EQ(s.poll_feed(10).size(), 2u);
  EXPECT_TRUE(shards_mutually_consistent(s));
}

TEST(ShardedStore, SchedulePinnedCrossShardConflictAbortsNotTears) {
  // t0 runs a cross-shard group {ka, kb}; t1 commits a plain put to ka
  // mid-flight (aborting t0 by eager contention management, or losing to
  // it). Exactly one serial order results; both shards and the feed agree.
  Store s(4, {.buckets = 256});
  const auto [ka, kb] = cross_shard_pair(s);
  std::atomic<bool> t0_committed{false};

  h::ScheduleDriver d;
  d.add_thread({
      [&] { s.manager(0)->txBegin(); },
      [&] {
        try {
          s.put(ka, 111);
          s.put(kb, 111);
        } catch (const TransactionAborted&) {
        }
      },
      [&] {
        try {
          if (s.domain()->in_tx()) {
            s.manager(0)->txEnd();
            t0_committed.store(true);
          }
        } catch (const TransactionAborted&) {
        }
      },
  });
  d.add_thread({
      [&] { s.put(ka, 222); },  // full committed store op
  });
  d.run({0, 0, 1, 0});

  if (t0_committed.load()) {
    // t0 serialized after t1: the group won both keys.
    EXPECT_EQ(s.get(ka), std::optional<std::uint64_t>(111));
    EXPECT_EQ(s.get(kb), std::optional<std::uint64_t>(111));
  } else {
    // t1's eager finalization killed t0: the group left NOTHING behind.
    EXPECT_EQ(s.get(ka), std::optional<std::uint64_t>(222));
    EXPECT_FALSE(s.contains(kb))
        << "half of an aborted cross-shard group remained visible";
  }
  auto feed = s.poll_feed(10);
  std::map<std::uint64_t, std::uint64_t> replayed;
  medley::store::replay_feed(feed, replayed);
  EXPECT_EQ(replayed, primary_union(s));
  EXPECT_TRUE(shards_mutually_consistent(s));
}

TEST(ShardedStore, CrossShardTransfersConserveTotal8Threads) {
  // transact() as a cross-shard transfer: 6 writer threads move amounts
  // between random accounts, 2 reader threads take atomic whole-store
  // snapshots (merged range). Every committed snapshot must show the
  // exact initial grand total — a torn cross-shard transfer would not.
  Store s(4, {.buckets = 256});
  constexpr std::uint64_t kAccounts = 32;
  constexpr std::uint64_t kInitial = 1000;
  constexpr std::uint64_t kTotal = kAccounts * kInitial;
  for (std::uint64_t a = 0; a < kAccounts; a++) s.put(a, kInitial);
  s.poll_feed(1000);  // preload is not traffic
  std::atomic<bool> violation{false};
  std::atomic<std::uint64_t> snapshots{0};

  h::run_seeded(8, 2026, [&](int t, medley::util::Xoshiro256& rng) {
    if (t < 6) {
      for (int i = 0; i < 250; i++) {
        const std::uint64_t from = rng.next_bounded(kAccounts);
        std::uint64_t to = rng.next_bounded(kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        const std::uint64_t amt = rng.next_bounded(10);
        s.transact([&] {
          const std::uint64_t a = s.get(from).value_or(0);
          if (a >= amt) {
            s.put(from, a - amt);
            s.put(to, s.get(to).value_or(0) + amt);
          }
        });
      }
    } else {
      for (int i = 0; i < 60; i++) {
        std::uint64_t sum = 0;
        s.transact([&] {
          sum = 0;
          for (const auto& [k, v] : s.range(0, kAccounts)) sum += v;
        });
        snapshots.fetch_add(1, std::memory_order_relaxed);
        if (sum != kTotal) violation.store(true);
      }
    }
  });

  EXPECT_FALSE(violation.load())
      << "an atomic snapshot saw a non-conserved total";
  EXPECT_GT(snapshots.load(), 0u);
  std::uint64_t final_sum = 0;
  for (const auto& [k, v] : primary_union(s)) final_sum += v;
  EXPECT_EQ(final_sum, kTotal);
  EXPECT_TRUE(shards_mutually_consistent(s));
}

TEST(ShardedStore, MixedWorkloadInvariants8Threads) {
  // The sharded analogue of Store.MixedWorkloadMutualConsistency8Threads:
  // 5 mutators (point ops + cross-shard groups), 2 snapshot readers, one
  // merged-feed consumer. Afterwards: S1 per shard, S3 globally, S5 exact.
  Store s(4, {.buckets = 256});
  constexpr std::uint64_t kKeys = 48;
  constexpr int kOps = 600;
  std::atomic<bool> torn{false};
  std::vector<Store::FeedItem> log;

  h::run_seeded(8, 4242, [&](int t, medley::util::Xoshiro256& rng) {
    if (t < 5) {  // mutators
      for (int i = 0; i < kOps; i++) {
        const auto k = rng.next_bounded(kKeys);
        switch (rng.next_bounded(5)) {
          case 0: s.put(k, rng.next_bounded(1u << 20)); break;
          case 1: s.del(k); break;
          case 2:
            s.read_modify_write(
                k, [](const std::optional<std::uint64_t>& c) {
                  return std::optional<std::uint64_t>(c.value_or(0) + 1);
                });
            break;
          case 3:
            // Cross-shard group: same generation on both keys.
            s.multi_put({{k, i * 8u}, {(k + 7) % kKeys, i * 8u}});
            break;
          default:
            s.read_modify_write_many(
                {k, (k + 13) % kKeys},
                [](std::uint64_t, const std::optional<std::uint64_t>& c) {
                  return std::optional<std::uint64_t>(c.value_or(0) + 2);
                });
            break;
        }
      }
    } else if (t == 7) {  // merged feed consumer
      for (int i = 0; i < kOps; i++) {
        auto batch = s.poll_feed(8);
        log.insert(log.end(), batch.begin(), batch.end());
      }
    } else {  // readers: committed cross-shard snapshots (S2)
      for (int i = 0; i < kOps; i++) {
        const auto k = rng.next_bounded(kKeys);
        std::optional<std::uint64_t> p;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> r;
        s.transact([&] {
          p = s.get(k);
          r = s.shard(s.shard_of(k)).range(k, k);
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

  EXPECT_FALSE(torn.load()) << "a committed snapshot saw torn state";
  EXPECT_TRUE(shards_mutually_consistent(s));

  // S3 at scale: polled prefix + final drain replays to the union of the
  // shard primaries (per-key order exactness is implied by equality).
  for (;;) {
    auto batch = s.poll_feed(64);
    if (batch.empty()) break;
    log.insert(log.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(s.feed_depth(), 0u);
  std::map<std::uint64_t, std::uint64_t> replayed;
  medley::store::replay_feed(log, replayed);
  EXPECT_EQ(replayed, primary_union(s));

  // S5: aggregate == sum of shards + cross block, feed fully accounted.
  auto agg = s.stats();
  medley::store::StoreStats::Snapshot sum = s.stats_cross();
  for (std::size_t i = 0; i < s.shard_count(); i++) {
    sum += s.stats_shard(i);
  }
  EXPECT_EQ(agg.commits, sum.commits);
  EXPECT_EQ(agg.aborts(), sum.aborts());
  EXPECT_EQ(agg.feed_pushed, log.size());
  EXPECT_EQ(agg.feed_polled, log.size());
  EXPECT_GT(agg.commits, 0u);
}

TEST(ShardedStore, SingleShardDegeneratesToMedleyStore) {
  Store s(1, {.buckets = 64});
  s.multi_put({{1, 10}, {2, 20}, {3, 30}});
  EXPECT_EQ(s.get(2), std::optional<std::uint64_t>(20));
  EXPECT_EQ(s.range(0, 10).size(), 3u);
  auto feed = s.poll_feed(10);
  ASSERT_EQ(feed.size(), 3u);
  EXPECT_LT(feed[0].seq, feed[1].seq);  // one shard: stamps follow FIFO
  EXPECT_TRUE(shards_mutually_consistent(s));
}
