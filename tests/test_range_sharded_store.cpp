// RangeShardedMedleyStore: contiguous key-range shards under a shared
// TxDomain (range_sharded_store.hpp over sharded_base.hpp). Invariants
// under test, mirroring test_sharded_store.cpp's S1-S5 with the
// partitioning swapped:
//   R1  the partitioner is total and consistent: every key routes to
//       exactly one shard, a boundary key always routes to the shard on
//       its RIGHT, and point ops, range endpoints, and the splitter agree;
//   R2  cross-boundary transactions (multi_put / transact) are atomic —
//       a committed reader sees all of a write group or none of it, even
//       under pinned interleavings that stop the writer halfway;
//   R3  range/scan are interval-pruned: a window spanning one / two / all
//       shards returns exactly the oracle's contents in global order
//       (concatenation, no merge), and an empty shard in the middle of a
//       scan passes through to its right neighbor (refill);
//   R4  the merged feed replayed over an empty map reproduces the union
//       of the shard primaries (base machinery, re-checked under range
//       partitioning);
//   R5  per-shard key counts (store_stats.hpp key_count()) are exact
//       between quiescent points — the imbalance observable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "store/store.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::TransactionAborted;
using medley::store::RangePartitioner;
using medley::store::RangeShardedMedleyStore;
using Store = RangeShardedMedleyStore<std::uint64_t, std::uint64_t>;
using Part = RangePartitioner<std::uint64_t>;

namespace h = medley::test::harness;

namespace {

/// Four shards with pinned boundaries: [0,100) [100,200) [200,300) [300,inf).
Store make4(medley::store::StoreConfig cfg = {.buckets = 256}) {
  return Store(Part({100, 200, 300}), cfg);
}

/// R1 + basic_store I1 per shard, checked quiescently: every key lives on
/// the one shard its range owns, and the shard's primary maps it to its
/// live secondary node.
::testing::AssertionResult shards_mutually_consistent(Store& s) {
  for (std::size_t i = 0; i < s.shard_count(); i++) {
    auto& shard = s.shard(i);
    for (const auto& [k, node] : shard.secondary().handles_slow()) {
      if (s.shard_of(k) != i) {
        return ::testing::AssertionFailure()
               << "key " << k << " stored on shard " << i
               << " but its range is shard " << s.shard_of(k);
      }
    }
    if (auto r = medley::test::primary_maps_live_nodes(shard); !r) {
      return r << " (shard " << i << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

std::map<std::uint64_t, std::uint64_t> primary_union(Store& s) {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& [k, v] : s.range(0, ~0ULL)) out[k] = v;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Partitioner unit tests (R1)
// ---------------------------------------------------------------------------

TEST(RangePartitioner, BoundaryKeysRouteConsistently) {
  Part p({100, 200, 300});
  EXPECT_EQ(p.shard_count(), 4u);
  // Interior keys.
  EXPECT_EQ(p.shard_of(0), 0u);
  EXPECT_EQ(p.shard_of(99), 0u);
  EXPECT_EQ(p.shard_of(150), 1u);
  EXPECT_EQ(p.shard_of(299), 2u);
  EXPECT_EQ(p.shard_of(1'000'000), 3u);
  // A boundary key belongs to the shard on its RIGHT — the one convention
  // point routing, range endpoints, and the splitter all share.
  EXPECT_EQ(p.shard_of(100), 1u);
  EXPECT_EQ(p.shard_of(200), 2u);
  EXPECT_EQ(p.shard_of(300), 3u);
  // shard_span is the inclusive shard interval a query descends into.
  EXPECT_EQ(p.shard_span(0, 99), std::make_pair(std::size_t{0}, std::size_t{0}));
  EXPECT_EQ(p.shard_span(99, 100), std::make_pair(std::size_t{0}, std::size_t{1}));
  EXPECT_EQ(p.shard_span(100, 299), std::make_pair(std::size_t{1}, std::size_t{2}));
  EXPECT_EQ(p.shard_span(0, ~0ULL), std::make_pair(std::size_t{0}, std::size_t{3}));
}

TEST(RangePartitioner, FromSamplesPicksEquiDepthQuantiles) {
  // 0..99 sampled densely, 4 shards: boundaries at the 25/50/75 quantiles.
  std::vector<std::uint64_t> samples;
  for (std::uint64_t k = 0; k < 100; k++) samples.push_back(k);
  auto p = Part::from_samples(samples, 4);
  ASSERT_EQ(p.bounds().size(), 3u);
  EXPECT_EQ(p.bounds()[0], 25u);
  EXPECT_EQ(p.bounds()[1], 50u);
  EXPECT_EQ(p.bounds()[2], 75u);
  // Equi-depth on a skewed sample: boundaries follow the mass, not the
  // span — 3/4 of the samples below 10 pull every boundary below 10.
  std::vector<std::uint64_t> skew;
  for (std::uint64_t k = 0; k < 9; k++) skew.push_back(k);
  skew.push_back(1'000'000);
  auto q = Part::from_samples(skew, 4);
  ASSERT_EQ(q.bounds().size(), 3u);
  EXPECT_LT(q.bounds()[2], 10u);
}

TEST(RangePartitioner, UniformFallbackWhenSampleTooThin) {
  // Two distinct samples, four shards: quantile cutting is impossible, so
  // the splitter falls back to uniform boundaries over the sample span.
  auto p = Part::from_samples({0, 400, 400, 0}, 4);
  ASSERT_EQ(p.bounds().size(), 3u);
  EXPECT_EQ(p.bounds()[0], 100u);
  EXPECT_EQ(p.bounds()[1], 200u);
  EXPECT_EQ(p.bounds()[2], 300u);
  // No usable sample at all: uniform over the full integral key domain.
  auto q = Part::from_samples({}, 4);
  ASSERT_EQ(q.bounds().size(), 3u);
  EXPECT_GT(q.bounds()[0], 0u);
  EXPECT_LT(q.bounds()[2], std::numeric_limits<std::uint64_t>::max());
  EXPECT_LT(q.bounds()[0], q.bounds()[1]);
  EXPECT_LT(q.bounds()[1], q.bounds()[2]);
  // Single-shard degenerate case needs no boundaries from any sample.
  EXPECT_TRUE(Part::from_samples({}, 1).bounds().empty());
  // Unsorted explicit boundaries are rejected, not silently misrouted.
  EXPECT_THROW(Part({5, 3}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Store behavior
// ---------------------------------------------------------------------------

TEST(RangeShardedStore, PointOpsRouteByRangeAndCompose) {
  Store s = make4();
  for (std::uint64_t k = 0; k < 400; k += 25) {
    EXPECT_FALSE(s.put(k, k * 10).has_value());
  }
  for (std::uint64_t k = 0; k < 400; k += 25) {
    EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(k * 10));
    EXPECT_EQ(s.shard_of(k), k / 100);  // dense keys land by interval
  }
  EXPECT_EQ(s.put(100, 1001), std::optional<std::uint64_t>(1000));
  EXPECT_EQ(s.del(125), std::optional<std::uint64_t>(1250));
  EXPECT_FALSE(s.contains(125));
  EXPECT_EQ(s.read_modify_write(
                100,
                [](const std::optional<std::uint64_t>& c) {
                  return std::optional<std::uint64_t>(c.value_or(0) + 1);
                }),
            std::optional<std::uint64_t>(1002));
  EXPECT_TRUE(shards_mutually_consistent(s));
}

TEST(RangeShardedStore, RangeSpansOneTwoAllShards) {
  Store s = make4();
  std::map<std::uint64_t, std::uint64_t> oracle;
  medley::util::Xoshiro256 rng(99);
  for (int i = 0; i < 400; i++) {
    const std::uint64_t k = rng.next_bounded(400);
    if (rng.next_bounded(4) == 0) {
      s.del(k);
      oracle.erase(k);
    } else {
      const std::uint64_t v = rng.next();
      s.put(k, v);
      oracle[k] = v;
    }
  }

  auto want = [&](std::uint64_t lo, std::uint64_t hi) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> w;
    for (auto it = oracle.lower_bound(lo);
         it != oracle.end() && it->first <= hi; ++it) {
      w.emplace_back(it->first, it->second);
    }
    return w;
  };

  // Exactly one shard (single-manager fast path), two shards (one
  // boundary crossed), and all four (concatenation must stay globally
  // sorted and exact).
  EXPECT_EQ(s.range(10, 90), want(10, 90));
  EXPECT_EQ(s.range(150, 250), want(150, 250));
  EXPECT_EQ(s.range(0, 399), want(0, 399));
  // Boundary endpoints: hi == a boundary key must include it (it lives on
  // the right shard), and an inverted window is empty.
  EXPECT_EQ(s.range(50, 100), want(50, 100));
  EXPECT_EQ(s.range(200, 200), want(200, 200));
  EXPECT_TRUE(s.range(300, 200).empty());
  EXPECT_TRUE(shards_mutually_consistent(s));
}

TEST(RangeShardedStore, ScanSpansAndRefillsThroughEmptyShards) {
  Store s = make4();
  // Shards 0 and 2 populated; shard 1 ([100,200)) left EMPTY: a scan
  // walking right from shard 0 must pass through it and refill from
  // shard 2. Shard 3 holds the tail.
  std::map<std::uint64_t, std::uint64_t> oracle;
  for (std::uint64_t k = 0; k < 100; k += 10) {
    s.put(k, k);
    oracle[k] = k;
  }
  for (std::uint64_t k = 200; k < 400; k += 10) {
    s.put(k, k);
    oracle[k] = k;
  }

  auto want = [&](std::uint64_t lo, std::size_t limit) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> w;
    for (auto it = oracle.lower_bound(lo);
         it != oracle.end() && w.size() < limit; ++it) {
      w.emplace_back(it->first, it->second);
    }
    return w;
  };

  EXPECT_EQ(s.scan(0, 5), want(0, 5));      // inside shard 0
  EXPECT_EQ(s.scan(50, 10), want(50, 10));  // crosses the empty shard 1
  EXPECT_EQ(s.scan(100, 4), want(100, 4));  // starts IN the empty shard
  EXPECT_EQ(s.scan(0, 64), want(0, 64));    // all shards, exhausts the map
  EXPECT_EQ(s.scan(350, 64), want(350, 64));  // last shard: local fast path
  EXPECT_TRUE(s.scan(0, 0).empty());
  EXPECT_TRUE(shards_mutually_consistent(s));
}

TEST(RangeShardedStore, SchedulePinnedCrossBoundaryMultiPutIsAtomic) {
  // The acceptance scenario, range edition: a write group spanning the
  // shard-1/shard-2 boundary is interrupted halfway by a reader
  // transaction touching both shards. Eager contention management
  // finalizes (aborts) the half-done writer, so the reader must see
  // NEITHER key; had the writer finished first, it would see BOTH. Never
  // one.
  Store s = make4();
  const std::uint64_t ka = 150, kb = 250;  // shards 1 and 2 by construction
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
      << "reader observed a torn cross-boundary multi_put";
  EXPECT_FALSE(writer_committed.load());
  EXPECT_FALSE(saw_a.load());
  EXPECT_FALSE(s.contains(ka));
  EXPECT_FALSE(s.contains(kb));
  EXPECT_TRUE(s.poll_feed(10).empty()) << "aborted group leaked a feed entry";

  // Control schedule: the same group completes first; a reader
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

TEST(RangeShardedStore, MixedWorkloadMergedSnapshotsMatchOracle8Threads) {
  // 5 mutators (point ops + cross-boundary groups), 2 snapshot readers
  // whose merged ranges must always be globally sorted and internally
  // consistent, one merged-feed consumer. Afterwards R1/R4/R5 and the
  // conservation-style oracle: the final primary union equals a replay of
  // everything the feed shipped.
  Store s = make4();
  constexpr std::uint64_t kKeys = 380;  // spans all four shards
  constexpr int kOps = 500;
  std::atomic<bool> torn{false};
  std::vector<Store::FeedItem> log;

  h::run_seeded(8, 7117, [&](int t, medley::util::Xoshiro256& rng) {
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
            // Cross-boundary group: k and its far neighbor get the same
            // generation, atomically.
            s.multi_put({{k, i * 8u}, {(k + 173) % kKeys, i * 8u}});
            break;
          default:
            s.read_modify_write_many(
                {k, (k + 211) % kKeys},
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
    } else {  // readers: committed merged-range snapshots
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
        auto window = s.range(k, k + 120);  // usually crosses a boundary
        for (std::size_t j = 1; j < window.size(); j++) {
          if (!(window[j - 1].first < window[j].first)) torn.store(true);
        }
      }
    }
  });

  EXPECT_FALSE(torn.load()) << "a committed snapshot saw torn state";
  EXPECT_TRUE(shards_mutually_consistent(s));

  // R4 at scale: polled prefix + final drain replays to the union of the
  // shard primaries.
  for (;;) {
    auto batch = s.poll_feed(64);
    if (batch.empty()) break;
    log.insert(log.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(s.feed_depth(), 0u);
  std::map<std::uint64_t, std::uint64_t> replayed;
  medley::store::replay_feed(log, replayed);
  EXPECT_EQ(replayed, primary_union(s));

  // R5: per-shard key counts are exact and sum to the live total; the
  // aggregate folds shards + the cross block.
  const auto counts = s.key_counts();
  ASSERT_EQ(counts.size(), s.shard_count());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < s.shard_count(); i++) {
    EXPECT_EQ(counts[i], s.shard(i).primary().size_slow())
        << "shard " << i << " key_count drifted from the live structure";
    total += counts[i];
  }
  EXPECT_EQ(total, primary_union(s).size());
  EXPECT_EQ(s.stats().key_count(), total);

  auto agg = s.stats();
  medley::store::StoreStats::Snapshot sum = s.stats_cross();
  for (std::size_t i = 0; i < s.shard_count(); i++) sum += s.stats_shard(i);
  EXPECT_EQ(agg.commits, sum.commits);
  EXPECT_EQ(agg.feed_pushed, log.size());
  EXPECT_EQ(agg.feed_polled, log.size());
}

TEST(RangeShardedStore, SeededSplitterBalancesAndSingleShardDegenerates) {
  // Seeding-time splitter end to end: boundaries from a sample of the
  // load, then the loaded store's per-shard key counts stay within a
  // loose band of records/nshards (equi-depth on the seeded
  // distribution).
  constexpr std::uint64_t kRecords = 800;
  std::vector<std::uint64_t> seed;
  for (std::uint64_t k = 1; k <= kRecords; k += 7) seed.push_back(k);
  Store s(4, seed, {.buckets = 256});
  for (std::uint64_t k = 1; k <= kRecords; k++) s.put(k, k);
  const auto counts = s.key_counts();
  for (std::size_t i = 0; i < 4; i++) {
    EXPECT_GT(counts[i], kRecords / 8) << "shard " << i << " starved";
    EXPECT_LT(counts[i], kRecords / 2) << "shard " << i << " overloaded";
  }
  EXPECT_TRUE(shards_mutually_consistent(s));

  // One shard: everything degenerates to the single MedleyStore paths.
  Store one(Part(std::vector<std::uint64_t>{}), {.buckets = 64});
  one.multi_put({{1, 10}, {2, 20}, {3, 30}});
  EXPECT_EQ(one.get(2), std::optional<std::uint64_t>(20));
  EXPECT_EQ(one.range(0, 10).size(), 3u);
  EXPECT_EQ(one.scan(0, 10).size(), 3u);
  auto feed = one.poll_feed(10);
  ASSERT_EQ(feed.size(), 3u);
  EXPECT_LT(feed[0].seq, feed[1].seq);
  EXPECT_EQ(one.key_counts(), std::vector<std::uint64_t>{3});
}
