// nbMontage substrate: persistent region lifecycle, epoch machinery,
// payload tagging/batched write-back, abort invalidation, straddling-
// transaction aborts (epoch folded into the MCNS read set).

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "montage/epoch_sys.hpp"
#include "montage/pregion.hpp"
#include "smr/ebr.hpp"
#include "test_support.hpp"

using medley::TransactionAborted;
using medley::TxManager;
using medley::montage::EpochSys;
using medley::montage::PBlk;
using medley::montage::PRegion;
using medley::montage::RegionHeader;

namespace {
std::string temp_region(const char* name) {
  std::string p = ::testing::TempDir() + "medley_" + name + ".img";
  std::remove(p.c_str());
  return p;
}
}  // namespace

TEST(PRegion, FreshRegionInitialized) {
  auto path = temp_region("fresh");
  PRegion r(path, 128);
  EXPECT_TRUE(r.fresh());
  EXPECT_EQ(r.capacity(), 128u);
  EXPECT_EQ(r.header().persisted_epoch.load(), 0u);
  EXPECT_EQ(r.live_count(), 0u);
  std::remove(path.c_str());
}

TEST(PRegion, FreshRegionHandsOutInIndexOrderAndStaysUnbacked) {
  // A created file is all zeros already: the open writes no slot, so
  // only the pages of slots actually used get backed.
  auto path = temp_region("unbacked");
  constexpr std::size_t kSlots = std::size_t{1} << 20;  // 64 MiB of slots
  PRegion r(path, kSlots);
  ASSERT_TRUE(r.fresh());
  for (std::size_t i = 0; i < 200; i++) {
    PBlk* b = r.alloc();
    ASSERT_EQ(b, r.slot(i));
    b->magic.store(PBlk::kMagicLive);
  }
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(static_cast<std::size_t>(st.st_size), 64 + kSlots * 64);
  EXPECT_LT(static_cast<std::size_t>(st.st_blocks) * 512, kSlots * 64 / 16);
  std::remove(path.c_str());
}

TEST(PRegion, CapacityBeyondIndexWidthRefused) {
  auto path = temp_region("toolarge");
  EXPECT_THROW(PRegion(path, std::size_t{1} << 32), std::invalid_argument);
  struct stat st{};
  EXPECT_NE(::stat(path.c_str(), &st), 0);  // nothing was created
}

TEST(PRegion, AllocFreeCycle) {
  auto path = temp_region("allocfree");
  PRegion r(path, 16);
  PBlk* a = r.alloc();
  ASSERT_NE(a, nullptr);
  a->magic.store(PBlk::kMagicLive);
  EXPECT_EQ(r.live_count(), 1u);
  r.free(a);
  EXPECT_EQ(r.live_count(), 0u);
  std::remove(path.c_str());
}

TEST(PRegion, ExhaustionReturnsNull) {
  auto path = temp_region("exhaust");
  PRegion r(path, 4);
  PBlk* blks[4];
  for (auto& b : blks) {
    b = r.alloc();
    ASSERT_NE(b, nullptr);
    b->magic.store(PBlk::kMagicLive);
  }
  EXPECT_EQ(r.alloc(), nullptr);
  r.free(blks[2]);
  EXPECT_NE(r.alloc(), nullptr);
  std::remove(path.c_str());
}

TEST(PRegion, ExhaustionIsExactAcrossThreadCaches) {
  // Slots freed into one thread's cache are found by another thread once
  // the depot and the never-used range are empty — and nothing more is.
  auto path = temp_region("exactsteal");
  PRegion r(path, 256);
  std::vector<PBlk*> all;
  for (PBlk* b; (b = r.alloc()) != nullptr;) all.push_back(b);
  ASSERT_EQ(all.size(), 256u);
  ASSERT_EQ(std::set<PBlk*>(all.begin(), all.end()).size(), 256u);
  constexpr std::size_t kFreed = 10;
  const std::set<PBlk*> freed(all.begin(), all.begin() + kFreed);
  for (PBlk* b : freed) r.free(b);  // into this thread's cache
  std::set<PBlk*> got;
  bool then_null = false;
  std::thread other([&] {
    for (std::size_t i = 0; i < kFreed; i++) {
      if (PBlk* b = r.alloc()) got.insert(b);
    }
    then_null = r.alloc() == nullptr;
  });
  other.join();
  EXPECT_EQ(got, freed);
  EXPECT_TRUE(then_null);
  EXPECT_EQ(r.alloc(), nullptr);
  std::remove(path.c_str());
}

TEST(PRegion, ResetEmptiesEveryCache) {
  auto path = temp_region("resetcaches");
  PRegion r(path, 256);
  std::vector<PBlk*> held;
  for (int i = 0; i < 100; i++) held.push_back(r.alloc());
  for (int i = 0; i < 50; i++) r.free(held[static_cast<std::size_t>(i)]);
  std::thread([&] { r.free(r.alloc()); }).join();
  r.reset();
  // Every slot exactly once, in index order: no cached index survived.
  for (std::size_t i = 0; i < 256; i++) ASSERT_EQ(r.alloc(), r.slot(i));
  EXPECT_EQ(r.alloc(), nullptr);
  std::remove(path.c_str());
}

TEST(PRegion, UsedBoundCoversEveryHandedOutSlot) {
  // Four threads drain a region of three and a half bound chunks: every
  // slot one of them gets lies below the bound it reads right after, and
  // the bound climbs to the capacity, never past it.
  auto path = temp_region("usedbound");
  constexpr std::size_t kCap = 3 * PRegion::kBoundChunk + 2048;
  PRegion r(path, kCap);
  EXPECT_EQ(r.header().used_bound.load(), PRegion::kBoundChunk);
  std::atomic<int> uncovered{0}, past_capacity{0};
  std::vector<std::size_t> got[4];
  medley::test::run_threads(4, [&](int t) {
    for (PBlk* b; (b = r.alloc()) != nullptr;) {
      const auto i = static_cast<std::size_t>(b - r.slot(0));
      const std::uint64_t bound = r.header().used_bound.load();
      if (i >= bound) uncovered.fetch_add(1);
      if (bound > kCap) past_capacity.fetch_add(1);
      got[t].push_back(i);
    }
  });
  EXPECT_EQ(uncovered.load(), 0);
  EXPECT_EQ(past_capacity.load(), 0);
  std::size_t handed_out = 0;
  std::set<std::size_t> all;
  for (const auto& g : got) {
    handed_out += g.size();
    all.insert(g.begin(), g.end());
  }
  EXPECT_EQ(handed_out, kCap);  // each slot handed out exactly once
  EXPECT_EQ(all.size(), kCap);
  EXPECT_EQ(r.header().used_bound.load(), kCap);
  std::remove(path.c_str());
}

TEST(PRegion, ReopenNeverPagesInTheUnusedTail) {
  // Reopening scans only below the used bound, so the process maps none
  // of the pages past it: their present bits in /proc/self/pagemap stay
  // clear, up to the kernel's fault-around. (mincore would report the
  // page cache instead, which the creating run's write faults fill by
  // the device's read-around window, 8 MiB on some hosts, whatever the
  // reopen does.)
  auto path = temp_region("tail");
  constexpr std::size_t kSlots = std::size_t{1} << 20;  // 64 MiB of slots
  constexpr std::size_t kUsed = 5000;
  std::size_t live = 0;
  {
    PRegion r(path, kSlots);
    ASSERT_TRUE(r.fresh());
    for (std::size_t i = 0; i < kUsed; i++) {
      PBlk* b = r.alloc();
      ASSERT_EQ(b, r.slot(i));
      if (i % 3 == 0) {
        b->magic.store(PBlk::kMagicLive);
        live++;
      }
    }
  }
  PRegion r(path, kSlots);
  ASSERT_FALSE(r.fresh());
  EXPECT_EQ(r.live_count(), live);
  const std::uint64_t bound = r.header().used_bound.load();
  ASSERT_GE(bound, kUsed);
  ASSERT_LT(bound, kSlots / 64);
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto map_begin = reinterpret_cast<std::uintptr_t>(&r.header());
  const std::uintptr_t map_end = map_begin + sizeof(RegionHeader) +
                                 kSlots * sizeof(PBlk);
  const std::uintptr_t from =
      (reinterpret_cast<std::uintptr_t>(r.slot(bound)) + page - 1) &
      ~(page - 1);
  const std::size_t pages = (map_end - from + page - 1) / page;
  std::vector<std::uint64_t> entries(pages);
  const int fd = ::open("/proc/self/pagemap", O_RDONLY);
  ASSERT_GE(fd, 0);
  const auto want = static_cast<ssize_t>(pages * sizeof(std::uint64_t));
  const ssize_t got =
      ::pread(fd, entries.data(), static_cast<std::size_t>(want),
              static_cast<off_t>(from / page * sizeof(std::uint64_t)));
  ::close(fd);
  ASSERT_EQ(got, want);
  std::size_t present = 0;
  for (std::uint64_t e : entries) present += e >> 63;  // bit 63: present
  EXPECT_LE(present, pages / 100)
      << present << " of " << pages << " tail pages mapped";
  std::remove(path.c_str());
}

TEST(PRegion, RegionWithoutBoundIsScannedWhole) {
  // A region written before the used bound existed holds 0 in its place:
  // any slot may be live, so its open scans the whole capacity. So does
  // one whose bound lies past its capacity, which no open could write.
  constexpr std::size_t kCap = 2 * PRegion::kBoundChunk;
  for (std::uint64_t bound : {std::uint64_t{0}, std::uint64_t{kCap + 1}}) {
    SCOPED_TRACE("used_bound " + std::to_string(bound));
    auto path = temp_region("nobound");
    {
      PRegion r(path, kCap);
      r.slot(kCap - 1)->magic.store(PBlk::kMagicLive);
      r.header().used_bound.store(bound);
    }
    PRegion r(path, kCap);
    ASSERT_FALSE(r.fresh());
    EXPECT_EQ(r.live_count(), 1u);
    std::size_t n = 0;
    for (PBlk* b; (b = r.alloc()) != nullptr; n++) {
      ASSERT_NE(b, r.slot(kCap - 1));
    }
    EXPECT_EQ(n, kCap - 1);
    std::remove(path.c_str());
  }
}

TEST(PRegion, RebuildAfterPartialUseIsExact) {
  // More than one batch used, every third slot live, the rest freed into
  // this thread's cache (which spills to the depot): both an in-place
  // rebuild and a reopen must list exactly the non-live slots as free.
  auto path = temp_region("partial");
  constexpr std::size_t kCap = 1024, kUsed = 300;
  auto drain = [](PRegion& r) {
    std::size_t n = 0;
    for (PBlk* b; (b = r.alloc()) != nullptr; n++) {
      EXPECT_NE(b->magic.load(), PBlk::kMagicLive);
    }
    return n;
  };
  std::size_t live = 0;
  {
    PRegion r(path, kCap);
    std::vector<PBlk*> used;
    for (std::size_t i = 0; i < kUsed; i++) {
      used.push_back(r.alloc());
      ASSERT_EQ(used.back(), r.slot(i));
    }
    for (std::size_t i = 0; i < kUsed; i++) {
      if (i % 3 == 0) {
        used[i]->magic.store(PBlk::kMagicLive);
        live++;
      } else {
        r.free(used[i]);
      }
    }
    EXPECT_EQ(r.live_count(), live);
    r.rebuild_freelist([](const PBlk& b) {
      return b.magic.load() != PBlk::kMagicLive;
    });
    EXPECT_EQ(drain(r), kCap - live);
    EXPECT_EQ(r.live_count(), live);
  }
  {
    PRegion r(path, kCap);
    EXPECT_FALSE(r.fresh());
    EXPECT_EQ(r.live_count(), live);
    EXPECT_EQ(drain(r), kCap - live);
  }
  std::remove(path.c_str());
}

TEST(PRegion, ContentsSurviveReopen) {
  auto path = temp_region("reopen");
  {
    PRegion r(path, 32);
    PBlk* b = r.alloc();
    b->key = 77;
    b->val = 88;
    b->create_epoch.store(3);
    b->magic.store(PBlk::kMagicLive);
    r.header().persisted_epoch.store(5);
  }
  {
    PRegion r(path, 32);
    EXPECT_FALSE(r.fresh());
    EXPECT_EQ(r.header().persisted_epoch.load(), 5u);
    EXPECT_EQ(r.live_count(), 1u);
    bool found = false;
    for (std::size_t i = 0; i < r.capacity(); i++) {
      if (r.slot(i)->magic.load() == PBlk::kMagicLive) {
        EXPECT_EQ(r.slot(i)->key, 77u);
        EXPECT_EQ(r.slot(i)->val, 88u);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  std::remove(path.c_str());
}

TEST(PRegion, ReopenWithOtherCapacityRefusesAndKeepsContents) {
  auto path = temp_region("othercap");
  {
    PRegion r(path, 32);
    PBlk* b = r.alloc();
    b->key = 77;
    b->create_epoch.store(3);
    b->magic.store(PBlk::kMagicLive);
    r.header().persisted_epoch.store(5);
  }
  EXPECT_THROW(PRegion(path, 64), std::runtime_error);
  EXPECT_THROW(PRegion(path, 16), std::runtime_error);
  {
    PRegion r(path, 32);
    EXPECT_FALSE(r.fresh());
    EXPECT_EQ(r.header().persisted_epoch.load(), 5u);
    EXPECT_EQ(r.live_count(), 1u);
  }
  std::remove(path.c_str());
}

TEST(PRegion, ConcurrentAllocFreeNoDoubleHandout) {
  // Four threads alloc/free one slot at a time through their caches; a
  // fifth holds batches of slots and hands them back through the bulk
  // path, as the epoch advancer does.
  auto path = temp_region("concalloc");
  PRegion r(path, 256);
  std::atomic<int> collisions{0};
  // Claim marker: a handed-out slot's owner_sid is nonzero until freed.
  auto claim = [&](PBlk* b) {
    if (b->owner_sid.exchange(1) != 0) collisions.fetch_add(1);
  };
  medley::test::run_threads(5, [&](int t) {
    if (t == 4) {
      std::vector<PBlk*> held;
      for (int round = 0; round < 100; round++) {
        for (int i = 0; i < 32; i++) {
          if (PBlk* b = r.alloc()) {
            claim(b);
            held.push_back(b);
          }
        }
        for (PBlk* b : held) b->owner_sid.store(0);
        r.release(held);
        held.clear();
      }
      return;
    }
    for (int i = 0; i < 2000; i++) {
      PBlk* b = r.alloc();
      if (b == nullptr) continue;
      claim(b);
      b->owner_sid.store(0);
      r.free(b);
    }
  });
  EXPECT_EQ(collisions.load(), 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------

struct EpochSysTest : ::testing::Test {
  void SetUp() override {
    path = temp_region("epochsys");
    region = std::make_unique<PRegion>(path, 1024);
    es = std::make_unique<EpochSys>(region.get());
  }
  void TearDown() override {
    es.reset();
    region.reset();
    std::remove(path.c_str());
  }
  std::string path;
  std::unique_ptr<PRegion> region;
  std::unique_ptr<EpochSys> es;
};

TEST_F(EpochSysTest, ClockStartsPastPersistedBoundary) {
  EXPECT_EQ(es->current_epoch(), 2u);
  EXPECT_EQ(es->persisted_epoch(), 0u);
}

TEST_F(EpochSysTest, AdvanceMovesClockAndBoundary) {
  const auto e = es->current_epoch();
  es->advance();
  EXPECT_EQ(es->current_epoch(), e + 1);
  EXPECT_EQ(es->persisted_epoch(), e);
}

TEST_F(EpochSysTest, CommittedPayloadBecomesDurableAtBoundary) {
  TxManager mgr;
  es->attach(&mgr);
  medley::execute_tx(mgr, [&] { es->alloc_payload(1, 10, 100); });
  EXPECT_EQ(es->durable_payload_count(), 0u);  // epoch still open
  es->sync();
  EXPECT_EQ(es->durable_payload_count(), 1u);
}

TEST_F(EpochSysTest, AbortedPayloadNeverDurable) {
  TxManager mgr;
  es->attach(&mgr);
  try {
    mgr.txBegin();
    es->alloc_payload(1, 10, 100);
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  es->sync();
  EXPECT_EQ(es->durable_payload_count(), 0u);
  EXPECT_EQ(region->live_count(), 0u);  // slot returned
}

TEST_F(EpochSysTest, RetirePersistsAtBoundary) {
  TxManager mgr;
  es->attach(&mgr);
  PBlk* blk = nullptr;
  medley::execute_tx(mgr, [&] { blk = es->alloc_payload(1, 10, 100); });
  es->sync();
  ASSERT_EQ(es->durable_payload_count(), 1u);
  medley::execute_tx(mgr, [&] { es->retire_payload(blk); });
  EXPECT_EQ(es->durable_payload_count(), 1u);  // retire not yet persisted
  es->sync();
  EXPECT_EQ(es->durable_payload_count(), 0u);
}

TEST_F(EpochSysTest, CancelReleasesSlotImmediately) {
  TxManager mgr;
  es->attach(&mgr);
  medley::execute_tx(mgr, [&] {
    PBlk* b = es->alloc_payload(1, 1, 1);
    es->cancel_payload(b);
  });
  es->sync();
  EXPECT_EQ(es->durable_payload_count(), 0u);
  EXPECT_EQ(region->live_count(), 0u);
}

TEST_F(EpochSysTest, EpochAdvanceAbortsStraddlingTx) {
  TxManager mgr;
  es->attach(&mgr);
  const auto e0 = es->current_epoch();
  mgr.txBegin();
  es->alloc_payload(1, 5, 50);
  // Advance from another thread: CASes the epoch cell first (invalidating
  // our folded read), then waits for our announcement to clear. Wait for
  // the CAS (not the boundary — that waits for us) before committing.
  std::thread adv([&] { es->advance(); });
  while (es->current_epoch() == e0) std::this_thread::yield();
  EXPECT_THROW(mgr.txEnd(), TransactionAborted);
  adv.join();
  es->sync();
  EXPECT_EQ(es->durable_payload_count(), 0u);  // aborted: invalidated
}

TEST_F(EpochSysTest, RetryAfterEpochAbortSucceeds) {
  TxManager mgr;
  es->attach(&mgr);
  std::thread adv;
  bool first = true;
  const auto e0 = es->current_epoch();
  medley::execute_tx(mgr, [&] {
    es->alloc_payload(1, 6, 60);
    if (first) {
      first = false;
      adv = std::thread([&] { es->advance(); });
      // Wait only for the epoch CAS (which precedes the advancer's wait
      // for us); waiting for the boundary itself would deadlock, since
      // the boundary waits for this very transaction.
      while (es->current_epoch() == e0) std::this_thread::yield();
    }
  });
  adv.join();
  es->sync();
  EXPECT_EQ(es->durable_payload_count(), 1u);
}

TEST_F(EpochSysTest, QuarantinedSlotReusableAfterGrace) {
  TxManager mgr;
  es->attach(&mgr);
  PBlk* blk = nullptr;
  medley::execute_tx(mgr, [&] { blk = es->alloc_payload(1, 7, 70); });
  medley::execute_tx(mgr, [&] { es->retire_payload(blk); });
  es->sync();
  // The slot frees once the persistence quarantine AND an EBR grace
  // period have both passed; a few advances push both forward.
  for (int i = 0; i < 6; i++) {
    medley::smr::EBR::instance().collect();
    es->advance();
  }
  EXPECT_EQ(region->live_count(), 0u);  // slot back on the freelist
}

TEST_F(EpochSysTest, BackgroundAdvancerMakesProgress) {
  es->start_advancer(1);
  TxManager mgr;
  es->attach(&mgr);
  const auto pe0 = es->persisted_epoch();
  medley::execute_tx(mgr, [&] { es->alloc_payload(1, 9, 90); });
  // The advancer alone must eventually persist the payload's epoch.
  for (int i = 0; i < 2000 && es->durable_payload_count() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  es->stop_advancer();
  EXPECT_EQ(es->durable_payload_count(), 1u);
  EXPECT_GT(es->persisted_epoch(), pe0);
}

TEST_F(EpochSysTest, RecoverDropsUnpersistedPayloads) {
  TxManager mgr;
  es->attach(&mgr);
  medley::execute_tx(mgr, [&] { es->alloc_payload(1, 1, 11); });
  es->sync();
  medley::execute_tx(mgr, [&] { es->alloc_payload(1, 2, 22); });  // not synced
  auto recovered = es->recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0]->key, 1u);
  EXPECT_EQ(recovered[0]->val, 11u);
}
