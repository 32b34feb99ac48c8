// MedleyStore: the serving-layer subsystem where all three structure
// families compose in one transaction on a hot path. Invariants under
// test ("mutual consistency"):
//   I1  one record per key: every primary entry maps its key to the live
//       secondary node holding that key's value, and the key counts agree
//       (medley::test::primary_maps_live_nodes);
//   I2  the change feed, replayed over an empty map, reproduces the
//       store's key -> value mapping exactly (feed order == serialization
//       order);
//   I3  a committed transaction can never observe I1 broken (no torn
//       composite writes), even under contention or pinned interleavings;
//   I4  the persistent variant recovers primary+secondary consistently
//       from a crash at an arbitrary persisted boundary.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "store/store.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::TransactionAborted;
using medley::TxExecutor;
using medley::TxManager;
using medley::store::FeedOp;
using medley::store::MedleyStore;
using medley::store::PersistentMedleyStore;
using medley::store::StoreConfig;
using Store = MedleyStore<std::uint64_t, std::uint64_t>;

namespace h = medley::test::harness;
using medley::test::primary_maps_live_nodes;

namespace {

std::string temp_region(const char* name) {
  std::string p = ::testing::TempDir() + "medley_store_" + name + ".img";
  std::remove(p.c_str());
  return p;
}

}  // namespace

TEST(Store, PointOpSemantics) {
  TxManager mgr;
  Store s(&mgr, {.buckets = 64});

  EXPECT_FALSE(s.get(1).has_value());
  EXPECT_FALSE(s.put(1, 10).has_value());           // fresh insert
  EXPECT_EQ(s.get(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(s.put(1, 11), std::optional<std::uint64_t>(10));  // replace
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.del(2).has_value());               // absent
  EXPECT_EQ(s.del(1), std::optional<std::uint64_t>(11));
  EXPECT_FALSE(s.contains(1));

  // read_modify_write: counter upsert, then deletion via nullopt.
  auto inc = [](const std::optional<std::uint64_t>& cur) {
    return std::optional<std::uint64_t>(cur.value_or(0) + 1);
  };
  EXPECT_EQ(s.read_modify_write(7, inc), std::optional<std::uint64_t>(1));
  EXPECT_EQ(s.read_modify_write(7, inc), std::optional<std::uint64_t>(2));
  auto erase = [](const std::optional<std::uint64_t>&) {
    return std::optional<std::uint64_t>();
  };
  EXPECT_FALSE(s.read_modify_write(7, erase).has_value());
  EXPECT_FALSE(s.contains(7));
  EXPECT_TRUE(primary_maps_live_nodes(s));

  auto st = s.stats();
  EXPECT_GT(st.commits, 0u);
}

TEST(Store, RangeScanAndMultiPut) {
  TxManager mgr;
  Store s(&mgr, {.buckets = 64});
  s.multi_put({{30, 300}, {10, 100}, {20, 200}, {40, 400}});

  auto r = s.range(10, 30);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], (std::pair<std::uint64_t, std::uint64_t>{10, 100}));
  EXPECT_EQ(r[2], (std::pair<std::uint64_t, std::uint64_t>{30, 300}));

  auto sc = s.scan(15, 2);
  ASSERT_EQ(sc.size(), 2u);
  EXPECT_EQ(sc[0].first, 20u);
  EXPECT_EQ(sc[1].first, 30u);

  EXPECT_TRUE(s.range(41, 1000).empty());
  EXPECT_TRUE(primary_maps_live_nodes(s));
}

TEST(Store, FeedMirrorsCommittedMutationsInOrder) {
  TxManager mgr;
  Store s(&mgr, {.buckets = 64});

  s.put(1, 10);
  s.put(2, 20);
  s.put(1, 11);
  s.del(2);
  s.multi_put({{3, 30}, {4, 40}});
  EXPECT_EQ(s.feed_depth(), 6u);

  auto feed = s.poll_feed(100);
  ASSERT_EQ(feed.size(), 6u);
  EXPECT_EQ(feed[0].op, FeedOp::Put);
  EXPECT_EQ(feed[0].key, 1u);
  EXPECT_EQ(feed[0].val, 10u);
  EXPECT_EQ(feed[3].op, FeedOp::Del);
  EXPECT_EQ(feed[3].key, 2u);
  EXPECT_EQ(s.feed_depth(), 0u);
  EXPECT_TRUE(s.poll_feed(4).empty());

  // I2: replay reproduces the store's mapping.
  std::map<std::uint64_t, std::uint64_t> replayed;
  medley::store::replay_feed(feed, replayed);
  std::map<std::uint64_t, std::uint64_t> want{{1, 11}, {3, 30}, {4, 40}};
  EXPECT_EQ(replayed, want);
  EXPECT_TRUE(primary_maps_live_nodes(s));
}

TEST(Store, FlatNestingComposesIntoAmbientTransaction) {
  TxManager mgr;
  Store s(&mgr, {.buckets = 64});
  s.put(1, 10);
  s.poll_feed(10);

  // Store ops inside an open transaction join it: an abort rolls back
  // every index and the feed entry together.
  try {
    mgr.txBegin();
    s.put(5, 50);
    EXPECT_EQ(s.get(5), std::optional<std::uint64_t>(50));  // own write
    s.del(1);
    EXPECT_FALSE(s.contains(1));
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_FALSE(s.contains(5));
  EXPECT_EQ(s.get(1), std::optional<std::uint64_t>(10));
  EXPECT_TRUE(s.poll_feed(10).empty()) << "aborted tx leaked a feed entry";

  // And a commit applies all of it atomically.
  medley::execute_tx(mgr, [&] {
    s.put(6, 60);
    auto v = s.get(1);
    s.put(7, *v + 100);
  });
  EXPECT_EQ(s.get(6), std::optional<std::uint64_t>(60));
  EXPECT_EQ(s.get(7), std::optional<std::uint64_t>(110));
  EXPECT_EQ(s.feed_depth(), 2u);  // nested pushes counted at commit
  EXPECT_EQ(s.poll_feed(10).size(), 2u);
  EXPECT_EQ(s.feed_depth(), 0u);
  EXPECT_TRUE(primary_maps_live_nodes(s));
}

TEST(Store, MixedWorkloadMutualConsistency8Threads) {
  TxManager mgr;
  Store s(&mgr, {.buckets = 128});
  constexpr std::uint64_t kKeys = 48;
  constexpr int kOps = 900;
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> snapshots{0};
  // Single consumer: thread 7 tails the feed; its polled prefix plus the
  // final drain is the full serialization-order mutation log.
  std::vector<medley::store::FeedEntry<std::uint64_t, std::uint64_t>> log;

  h::run_seeded(8, 4242, [&](int t, medley::util::Xoshiro256& rng) {
    if (t < 5) {  // mutators
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
          default:
            s.multi_put({{k, k * 3}, {(k + 7) % kKeys, k * 3}});
            break;
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
        snapshots.fetch_add(1, std::memory_order_relaxed);
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
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_TRUE(primary_maps_live_nodes(s));

  // I2 at scale: polled prefix + final drain replays to the mapping.
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

  auto st = s.stats();
  EXPECT_GT(st.commits, 0u);
  EXPECT_EQ(st.feed_pushed, log.size());
  EXPECT_EQ(st.feed_polled, log.size());
}

TEST(Store, ReadAndWriteFootprintsExact) {
  // One record per key: a GET reads the hash link and the node's next[0]
  // (2 read entries). An existing-key PUT reads the hash link and writes
  // only the node: its pin and its value cell (1 read, 2 write entries),
  // plus the feed's. A new key adds the hash insert to the skiplist link;
  // a DEL marks one link in each index.
  TxManager mgr;
  Store s(&mgr, {.buckets = 64, .feed_enabled = false});
  for (std::uint64_t k = 1; k <= 32; k++) s.put(k, k);

  using RW = std::pair<int, int>;
  using Opt = std::optional<std::uint64_t>;
  auto footprint = [&](auto&& op) {
    mgr.txBegin();
    op();
    const auto* d = mgr.my_desc();
    const RW rw{d->read_count(), d->write_count()};
    mgr.txEnd();
    return rw;
  };
  EXPECT_EQ(footprint([&] { EXPECT_EQ(s.get(5), Opt(5)); }), RW(2, 0));
  EXPECT_EQ(footprint([&] { EXPECT_EQ(s.get(500), Opt()); }), RW(1, 0));
  EXPECT_EQ(footprint([&] { EXPECT_EQ(s.put(5, 50), Opt(5)); }), RW(1, 2));
  EXPECT_EQ(footprint([&] {
              EXPECT_EQ(s.put(6, 60), Opt(6));
              EXPECT_EQ(s.put(6, 61), Opt(60));
            }),
            RW(2, 2));  // the repeat re-reads the hash link only
  EXPECT_EQ(footprint([&] { EXPECT_EQ(s.put(500, 1), Opt()); }), RW(1, 2));
  EXPECT_EQ(footprint([&] { EXPECT_EQ(s.del(7), Opt(7)); }), RW(0, 2));

  // With the feed on, an existing-key PUT costs exactly the feed's append
  // on top: measured as a transaction that only appends to the same feed.
  Store f(&mgr, {.buckets = 64});
  for (std::uint64_t k = 1; k <= 32; k++) f.put(k, k);
  const RW feed = footprint([&] {
    f.feed_queue().enqueue({FeedOp::Put, 9, 9});
  });
  const RW put = footprint([&] { f.put(9, 90); });
  EXPECT_EQ(put, RW(1 + feed.first, 2 + feed.second));
  EXPECT_TRUE(primary_maps_live_nodes(s));
  EXPECT_TRUE(primary_maps_live_nodes(f));
}

TEST(Store, PairPutsNeverTearAGet) {
  // Two writers each put a key pair (2i, 2i+1) to one fresh value per
  // transaction; readers get both keys inside one transaction, one under
  // execute and one under execute_ro. An existing-key PUT writes only the
  // skiplist node, so this holds only because a GET registers the node's
  // next[0], which every PUT's pin bumps at commit.
  TxManager mgr;
  Store s(&mgr, {.buckets = 64});
  constexpr std::uint64_t kPairs = 8;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  for (std::uint64_t k = 0; k < 2 * kPairs; k++) s.put(k, 0);
  std::atomic<int> writers_left{2};
  std::atomic<std::uint64_t> torn{0}, reads{0};

  h::run_seeded(4, 1861, [&](int t, medley::util::Xoshiro256& rng) {
    if (t < 2) {
      for (std::uint64_t i = 1;
           i <= 1000 || std::chrono::steady_clock::now() < deadline; i++) {
        const auto p = rng.next_bounded(kPairs);
        const std::uint64_t v = (static_cast<std::uint64_t>(t + 1) << 32) | i;
        medley::execute_tx(mgr, [&] {
          s.put(2 * p, v);
          s.put(2 * p + 1, v);
        });
      }
      writers_left.fetch_sub(1);
      return;
    }
    TxExecutor ex;
    while (writers_left.load() > 0) {
      const auto p = rng.next_bounded(kPairs);
      auto body = [&] { return std::pair{s.get(2 * p), s.get(2 * p + 1)}; };
      auto res = t == 2 ? ex.execute(mgr, body) : ex.execute_ro(mgr, body);
      ASSERT_TRUE(res.committed());
      reads.fetch_add(1, std::memory_order_relaxed);
      const auto& [a, b] = *res.value;
      if (!a || !b || *a != *b) torn.fetch_add(1);
    }
  });

  EXPECT_EQ(torn.load(), 0u) << "of " << reads.load() << " committed reads";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(primary_maps_live_nodes(s));
}

TEST(Store, OneRecordCheckerCatchesAMisdirectedHandle) {
  // The structural checker itself: a primary entry naming another key's
  // node, or a key the primary lacks, must fail it.
  TxManager mgr;
  Store s(&mgr, {.buckets = 64});
  for (std::uint64_t k = 1; k <= 4; k++) s.put(k, k * 10);
  ASSERT_TRUE(primary_maps_live_nodes(s));
  const auto h2 = s.primary().get(2);
  ASSERT_TRUE(h2.has_value());
  ASSERT_TRUE(s.primary().remove(1).has_value());
  EXPECT_FALSE(primary_maps_live_nodes(s));  // key 1 unmapped
  ASSERT_TRUE(s.primary().insert(1, *h2));
  EXPECT_FALSE(primary_maps_live_nodes(s));  // key 1 -> key 2's node
}

TEST(Store, SchedulePinnedCrossIndexConflictAbortsNotTears) {
  // t0 opens a transaction and flat-nests a store put; t1 commits a full
  // put to the same key mid-flight; t0 tries to commit. Eager contention
  // management means t0 usually conflict-aborts — but whichever way it
  // goes, the result must equal SOME serial order: primary, secondary
  // and feed all agree, never a torn composite write.
  TxManager mgr;
  Store s(&mgr, {.buckets = 64});
  constexpr std::uint64_t kKey = 9;
  std::atomic<bool> t0_committed{false};

  h::ScheduleDriver d;
  d.add_thread({
      [&] { mgr.txBegin(); },
      [&] {
        try {
          s.put(kKey, 111);
        } catch (const TransactionAborted&) {
        }
      },
      [&] {
        try {
          mgr.txEnd();
          t0_committed.store(true);
        } catch (const TransactionAborted&) {
        }
      },
  });
  d.add_thread({
      [&] { s.put(kKey, 222); },
  });
  d.run({0, 0, 1, 0});

  const auto final_val = t0_committed.load() ? 111u : 222u;
  EXPECT_EQ(s.get(kKey), std::optional<std::uint64_t>(final_val));
  auto r = s.range(kKey, kKey);
  ASSERT_EQ(r.size(), 1u) << "secondary disagrees with primary on presence";
  EXPECT_EQ(r[0].second, final_val);

  auto feed = s.poll_feed(10);
  ASSERT_EQ(feed.size(), t0_committed.load() ? 2u : 1u);
  EXPECT_EQ(feed.back().val, final_val) << "feed order != serial order";
  EXPECT_TRUE(primary_maps_live_nodes(s));
}

// ---------------------------------------------------------------------
// PersistentMedleyStore: same façade, crash-surviving indexes (I4).

TEST(PersistentStore, BasicsSurviveCrashAndRecovery) {
  auto path = temp_region("basic");
  {
    medley::montage::PRegion region(path, 2048);
    TxManager mgr;
    medley::montage::EpochSys es(&region);
    es.attach(&mgr);
    PersistentMedleyStore s(&mgr, &es, /*sid=*/1, {.buckets = 64});
    for (std::uint64_t k = 1; k <= 30; k++) s.put(k, k * 10);
    s.del(15);
    s.read_modify_write(20, [](const std::optional<std::uint64_t>& c) {
      return std::optional<std::uint64_t>(c.value_or(0) + 5);
    });
    auto r = s.range(10, 13);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[0].second, 100u);
    EXPECT_TRUE(primary_maps_live_nodes(s));
    es.sync();
  }  // crash: every DRAM structure is gone
  {
    medley::montage::PRegion region(path, 2048);
    ASSERT_FALSE(region.fresh());
    TxManager mgr;
    medley::montage::EpochSys es(&region);
    auto recovered = es.recover();
    es.attach(&mgr);
    PersistentMedleyStore s(&mgr, &es, /*sid=*/1, {.buckets = 64});
    s.recover_from(recovered);

    EXPECT_FALSE(s.contains(15));
    EXPECT_EQ(s.get(20), std::optional<std::uint64_t>(205));
    EXPECT_EQ(s.range(1, 30).size(), 29u);
    EXPECT_TRUE(primary_maps_live_nodes(s));
    // The store remains fully operational post-recovery.
    s.put(100, 1000);
    EXPECT_EQ(s.scan(99, 2).size(), 1u);
    EXPECT_TRUE(primary_maps_live_nodes(s));
  }
  std::remove(path.c_str());
}

TEST(PersistentStore, OverwritesSurviveCrashInBothIndexes) {
  // A PUT of an existing key replaces the skiplist's value in place (a
  // fresh payload swung into the live node, the old one retired). After a
  // crash, the recovered skiplist holds the last committed value of every
  // key, in one payload per key, and the primary rebuilt from it maps
  // every key to that node.
  auto path = temp_region("overwrite");
  constexpr std::uint64_t kKeys = 24;
  {
    medley::montage::PRegion region(path, 2048);
    TxManager mgr;
    medley::montage::EpochSys es(&region);
    es.attach(&mgr);
    PersistentMedleyStore s(&mgr, &es, /*sid=*/3, {.buckets = 64});
    for (std::uint64_t k = 0; k < kKeys; k++) {
      EXPECT_FALSE(s.put(k, k).has_value());
    }
    for (std::uint64_t round = 1; round <= 3; round++) {
      for (std::uint64_t k = 0; k < kKeys; k++) {
        const std::uint64_t prev = round == 1 ? k : k * 100 + round - 1;
        EXPECT_EQ(s.put(k, k * 100 + round), std::optional<std::uint64_t>(prev));
      }
    }
    s.multi_put({{1, 7001}, {2, 7002}});
    s.del(5);
    EXPECT_TRUE(primary_maps_live_nodes(s));
    es.sync();
    EXPECT_EQ(es.durable_payload_count(), kKeys - 1);  // one per mapping
  }  // crash
  {
    medley::montage::PRegion region(path, 2048);
    ASSERT_FALSE(region.fresh());
    TxManager mgr;
    medley::montage::EpochSys es(&region);
    auto recovered = es.recover();
    es.attach(&mgr);
    PersistentMedleyStore s(&mgr, &es, /*sid=*/3, {.buckets = 64});
    s.recover_from(recovered);

    std::map<std::uint64_t, std::uint64_t> want;
    for (std::uint64_t k = 0; k < kKeys; k++) want[k] = k * 100 + 3;
    want[1] = 7001;
    want[2] = 7002;
    want.erase(5);
    std::map<std::uint64_t, std::uint64_t> secondary;
    for (const auto& [k, v] : s.range(0, ~0ULL)) secondary[k] = v;
    EXPECT_EQ(secondary, want);
    for (const auto& [k, v] : want) {
      EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(v)) << k;
    }
    EXPECT_TRUE(primary_maps_live_nodes(s));
    // Overwrites keep working on the recovered indexes.
    EXPECT_EQ(s.put(3, 1), std::optional<std::uint64_t>(303));
    EXPECT_EQ(s.scan(3, 1)[0].second, 1u);
    EXPECT_TRUE(primary_maps_live_nodes(s));
  }
  std::remove(path.c_str());
}

TEST(PersistentStore, ConcurrentCrashRecoveryKeepsIndexesConsistent) {
  // Threads write key PAIRS (k, k+1000) atomically via multi_put while
  // the epoch advancer runs; the process then "crashes" mid-stream. The
  // recovered store must be a consistent prefix: the rebuilt primary
  // maps every recovered node, and every pair is present-or-absent as a
  // unit with equal values.
  auto path = temp_region("pairs");
  constexpr std::uint64_t kKeys = 24;
  {
    medley::montage::PRegion region(path, 16384);
    TxManager mgr;
    medley::montage::EpochSys es(&region);
    es.attach(&mgr);
    PersistentMedleyStore s(&mgr, &es, /*sid=*/7, {.buckets = 64});
    es.start_advancer(2);
    h::run_seeded(4, 99, [&](int t, medley::util::Xoshiro256& rng) {
      (void)t;
      for (int i = 0; i < 250; i++) {
        const auto k = rng.next_bounded(kKeys);
        const auto gen = rng.next_bounded(1u << 16);
        if (rng.next_bounded(5) == 0) {
          medley::execute_tx(mgr, [&] {
            s.del(k);
            s.del(k + 1000);
          });
        } else {
          s.multi_put({{k, gen}, {k + 1000, gen}});
        }
      }
    });
    es.stop_advancer();
  }  // crash at whatever boundary last persisted
  {
    medley::montage::PRegion region(path, 16384);
    TxManager mgr;
    medley::montage::EpochSys es(&region);
    auto recovered = es.recover();
    es.attach(&mgr);
    PersistentMedleyStore s(&mgr, &es, /*sid=*/7, {.buckets = 64});
    s.recover_from(recovered);

    EXPECT_TRUE(primary_maps_live_nodes(s));
    for (std::uint64_t k = 0; k < kKeys; k++) {
      auto a = s.get(k);
      auto b = s.get(k + 1000);
      EXPECT_EQ(a.has_value(), b.has_value()) << "torn pair at key " << k;
      if (a && b) EXPECT_EQ(*a, *b) << "pair generations differ at " << k;
    }
  }
  std::remove(path.c_str());
}

TEST(PersistentStore, CapacityAbortsAreTransientUnderChurn) {
  // A deliberately tight region: updates retire old payloads, and slots
  // only free after an epoch advance, so put() hits Capacity aborts that
  // run_tx must absorb (retry until the advancer catches up) without the
  // caller ever seeing a failure. One payload per mapping: the 640 puts
  // allocate 640 payloads, twice what the region holds.
  auto path = temp_region("tight");
  medley::montage::PRegion region(path, 320);
  TxManager mgr;
  medley::montage::EpochSys es(&region);
  es.attach(&mgr);
  PersistentMedleyStore s(&mgr, &es, /*sid=*/1, {.buckets = 32});
  es.start_advancer(1);
  constexpr std::uint64_t kKeys = 16;
  for (int round = 0; round < 40; round++) {
    for (std::uint64_t k = 0; k < kKeys; k++) {
      s.put(k, static_cast<std::uint64_t>(round));
    }
  }
  es.stop_advancer();
  for (std::uint64_t k = 0; k < kKeys; k++) {
    EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(39));
  }
  EXPECT_TRUE(primary_maps_live_nodes(s));
  auto st = s.stats();
  EXPECT_GE(st.commits, 40u * kKeys);  // every put eventually committed
  std::remove(path.c_str());
}
