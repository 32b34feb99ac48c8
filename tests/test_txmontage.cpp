// txMontage: ACID transactions over persistent Medley structures —
// isolation/consistency from Medley, failure atomicity + durability from
// the epoch system. Crash simulation: the DRAM side (index, EpochSys,
// TxManager) is discarded; the mmap'd region survives; recovery trusts
// only the persisted boundary, exactly like a machine restart would.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "montage/txmontage.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::TransactionAborted;
using medley::TxManager;
using medley::montage::EpochSys;
using medley::montage::PBlk;
using medley::montage::PRegion;
using medley::montage::TxMontageHashTable;
using medley::montage::TxMontageSkiplist;

namespace {
std::string temp_region(const char* name) {
  std::string p = ::testing::TempDir() + "medley_" + name + ".img";
  std::remove(p.c_str());
  return p;
}
}  // namespace

TEST(TxMontage, MapBasics) {
  auto path = temp_region("txm_basic");
  PRegion region(path, 1024);
  TxManager mgr;
  EpochSys es(&region);
  es.attach(&mgr);
  TxMontageHashTable m(&mgr, &es, /*sid=*/1, /*buckets=*/64);

  EXPECT_TRUE(m.insert(1, 10));
  EXPECT_FALSE(m.insert(1, 11));
  EXPECT_EQ(m.get(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(m.put(1, 12), std::optional<std::uint64_t>(10));
  EXPECT_EQ(m.remove(1), std::optional<std::uint64_t>(12));
  EXPECT_FALSE(m.contains(1));
  std::remove(path.c_str());
}

TEST(TxMontage, TransactionAcrossTwoPersistentMaps) {
  auto path = temp_region("txm_twomaps");
  PRegion region(path, 1024);
  TxManager mgr;
  EpochSys es(&region);
  es.attach(&mgr);
  TxMontageHashTable a(&mgr, &es, 1, 64);
  TxMontageSkiplist b(&mgr, &es, 2);

  a.insert(5, 500);
  medley::execute_tx(mgr, [&] {
    auto v = a.remove(5);
    ASSERT_TRUE(v.has_value());
    b.insert(5, *v);
  });
  EXPECT_FALSE(a.contains(5));
  EXPECT_EQ(b.get(5), std::optional<std::uint64_t>(500));
  std::remove(path.c_str());
}

TEST(TxMontage, AbortLeavesNoPersistentTrace) {
  auto path = temp_region("txm_abort");
  PRegion region(path, 1024);
  TxManager mgr;
  EpochSys es(&region);
  es.attach(&mgr);
  TxMontageHashTable m(&mgr, &es, 1, 64);

  try {
    mgr.txBegin();
    m.insert(9, 90);
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  es.sync();
  EXPECT_FALSE(m.contains(9));
  EXPECT_EQ(es.durable_payload_count(), 0u);
  std::remove(path.c_str());
}

TEST(TxMontage, SkiplistPutOutsideTransactionLeavesNoPayload) {
  // The skiplist's put is transactional only. A put refused outside a
  // transaction must not leave its payload to persist as committed.
  auto path = temp_region("txm_sl_put");
  PRegion region(path, 1024);
  TxManager mgr;
  EpochSys es(&region);
  es.attach(&mgr);
  TxMontageSkiplist m(&mgr, &es, /*sid=*/2);

  EXPECT_THROW(m.put(1, 10), std::logic_error);
  es.sync();
  EXPECT_FALSE(m.contains(1));
  EXPECT_EQ(es.durable_payload_count(), 0u);

  medley::execute_tx(mgr, [&] { EXPECT_FALSE(m.put(1, 10).has_value()); });
  medley::execute_tx(mgr, [&] {
    EXPECT_EQ(m.put(1, 11), std::optional<std::uint64_t>(10));
  });
  es.sync();
  EXPECT_EQ(m.get(1), std::optional<std::uint64_t>(11));
  EXPECT_EQ(es.durable_payload_count(), 1u);
  std::remove(path.c_str());
}

TEST(TxMontage, SkiplistHandleOpsKeepOnePayloadPerMapping) {
  // The handle ops manage payloads the way insert/put/remove do:
  // insert_handle allocates one (and cancels it when the key is present),
  // put_at swings in a fresh one and retires the old, remove_at retires
  // it. A write refused outside a transaction leaves no payload. After a
  // crash, the recovered list hands out handles to the same mappings.
  using Handle = TxMontageSkiplist::Handle;
  auto path = temp_region("txm_sl_handles");
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    es.attach(&mgr);
    TxMontageSkiplist m(&mgr, &es, /*sid=*/2);
    std::map<std::uint64_t, Handle> index;
    medley::execute_tx(mgr, [&] {
      for (std::uint64_t k = 1; k <= 8; k++) {
        const auto [h, inserted] = m.insert_handle(k, k * 10);
        EXPECT_TRUE(inserted);
        index[k] = h;
      }
    });
    const auto again = m.insert_handle(3, 999);
    EXPECT_FALSE(again.second);
    EXPECT_EQ(again.first, index[3]);
    EXPECT_THROW(m.put_at(index[4], 1), std::logic_error);
    EXPECT_THROW(m.remove_at(index[4]), std::logic_error);
    medley::execute_tx(mgr, [&] {
      EXPECT_EQ(m.put_at(index[4], 41), 40u);
      EXPECT_EQ(m.put_at(index[4], 42), 41u);
      EXPECT_EQ(m.value_at(index[4]), 42u);
      EXPECT_EQ(m.remove_at(index[5]), 50u);
    });
    es.sync();
    EXPECT_EQ(es.durable_payload_count(), 7u);
    EXPECT_EQ(m.value_at(index[3]), 30u);
  }  // crash
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    auto recovered = es.recover();
    es.attach(&mgr);
    TxMontageSkiplist m(&mgr, &es, /*sid=*/2);
    m.recover_from(recovered);
    std::map<std::uint64_t, Handle> index;
    for (const auto& [k, h] : m.handles_slow()) index[k] = h;
    ASSERT_EQ(index.size(), 7u);
    EXPECT_FALSE(index.count(5));
    EXPECT_EQ(m.value_at(index[4]), 42u);
    EXPECT_EQ(m.value_at(index[8]), 80u);
    medley::execute_tx(mgr, [&] { EXPECT_EQ(m.put_at(index[4], 43), 42u); });
    EXPECT_EQ(m.get(4), std::optional<std::uint64_t>(43));
  }
  std::remove(path.c_str());
}

TEST(TxMontage, SyncedDataSurvivesCrash) {
  auto path = temp_region("txm_crash1");
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    es.attach(&mgr);
    TxMontageHashTable m(&mgr, &es, 1, 64);
    for (std::uint64_t k = 1; k <= 20; k++) {
      medley::execute_tx(mgr, [&] { m.insert(k, k * 10); });
    }
    es.sync();
  }  // crash: all DRAM state gone
  {
    PRegion region(path, 1024);
    ASSERT_FALSE(region.fresh());
    TxManager mgr;
    EpochSys es(&region);
    auto recovered = es.recover();
    es.attach(&mgr);
    TxMontageHashTable m(&mgr, &es, 1, 64);
    m.recover_from(recovered);
    for (std::uint64_t k = 1; k <= 20; k++) {
      EXPECT_EQ(m.get(k), std::optional<std::uint64_t>(k * 10)) << k;
    }
    EXPECT_EQ(m.size_slow(), 20u);
  }
  std::remove(path.c_str());
}

TEST(TxMontage, UnsyncedSuffixLostAtomically) {
  auto path = temp_region("txm_crash2");
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    es.attach(&mgr);
    TxMontageHashTable m(&mgr, &es, 1, 64);
    medley::execute_tx(mgr, [&] {
      m.insert(1, 10);
      m.insert(2, 20);
    });
    es.sync();
    // Post-sync transaction: committed in DRAM, never persisted.
    medley::execute_tx(mgr, [&] {
      m.insert(3, 30);
      m.insert(4, 40);
    });
    EXPECT_TRUE(m.contains(3));
  }
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    auto recovered = es.recover();
    es.attach(&mgr);
    TxMontageHashTable m(&mgr, &es, 1, 64);
    m.recover_from(recovered);
    // The synced transaction survives whole...
    EXPECT_EQ(m.get(1), std::optional<std::uint64_t>(10));
    EXPECT_EQ(m.get(2), std::optional<std::uint64_t>(20));
    // ...the unsynced one disappears whole (buffered durability: a recent
    // suffix may be lost, but never a torn transaction).
    EXPECT_FALSE(m.contains(3));
    EXPECT_FALSE(m.contains(4));
  }
  std::remove(path.c_str());
}

TEST(TxMontage, RemoveBeforeCrashWithoutSyncResurrects) {
  auto path = temp_region("txm_crash3");
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    es.attach(&mgr);
    TxMontageHashTable m(&mgr, &es, 1, 64);
    medley::execute_tx(mgr, [&] { m.insert(1, 10); });
    es.sync();
    medley::execute_tx(mgr, [&] { m.remove(1); });  // not synced
  }
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    auto recovered = es.recover();
    es.attach(&mgr);
    TxMontageHashTable m(&mgr, &es, 1, 64);
    m.recover_from(recovered);
    // The unsynced remove is part of the lost suffix.
    EXPECT_EQ(m.get(1), std::optional<std::uint64_t>(10));
  }
  std::remove(path.c_str());
}

TEST(TxMontage, SyncedRemoveStaysRemoved) {
  auto path = temp_region("txm_crash4");
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    es.attach(&mgr);
    TxMontageHashTable m(&mgr, &es, 1, 64);
    medley::execute_tx(mgr, [&] { m.insert(1, 10); });
    medley::execute_tx(mgr, [&] { m.remove(1); });
    es.sync();
  }
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    auto recovered = es.recover();
    es.attach(&mgr);
    TxMontageHashTable m(&mgr, &es, 1, 64);
    m.recover_from(recovered);
    EXPECT_FALSE(m.contains(1));
    EXPECT_EQ(m.size_slow(), 0u);
  }
  std::remove(path.c_str());
}

TEST(TxMontage, TwoStructuresRecoverIndependentlyBySid) {
  auto path = temp_region("txm_sids");
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    es.attach(&mgr);
    TxMontageHashTable a(&mgr, &es, 1, 64);
    TxMontageSkiplist b(&mgr, &es, 2);
    medley::execute_tx(mgr, [&] {
      a.insert(1, 100);
      b.insert(1, 111);
    });
    es.sync();
  }
  {
    PRegion region(path, 1024);
    TxManager mgr;
    EpochSys es(&region);
    auto recovered = es.recover();
    es.attach(&mgr);
    TxMontageHashTable a(&mgr, &es, 1, 64);
    TxMontageSkiplist b(&mgr, &es, 2);
    a.recover_from(recovered);
    b.recover_from(recovered);
    EXPECT_EQ(a.get(1), std::optional<std::uint64_t>(100));
    EXPECT_EQ(b.get(1), std::optional<std::uint64_t>(111));
    EXPECT_EQ(a.size_slow(), 1u);
    EXPECT_EQ(b.size_slow(), 1u);
  }
  std::remove(path.c_str());
}

TEST(TxMontage, ConcurrentTransfersConserveAcrossCrash) {
  // The flagship BDSS property: concurrent transactional transfers with a
  // periodic advancer, then a crash; the recovered state must be a
  // consistent prefix — total balance conserved exactly.
  auto path = temp_region("txm_bank");
  constexpr std::uint64_t kAccounts = 16, kInitial = 100;
  {
    PRegion region(path, 8192);
    TxManager mgr;
    EpochSys es(&region);
    es.attach(&mgr);
    TxMontageHashTable m(&mgr, &es, 1, 64);
    for (std::uint64_t k = 0; k < kAccounts; k++) {
      medley::execute_tx(mgr, [&] { m.insert(k, kInitial); });
    }
    es.sync();
    es.start_advancer(2);
    medley::test::run_threads(4, [&](int t) {
      medley::util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 400; i++) {
        auto from = rng.next_bounded(kAccounts);
        auto to = rng.next_bounded(kAccounts);
        if (from == to) continue;
        medley::execute_tx(mgr, [&] {
          auto vf = m.get(from);
          auto vt = m.get(to);
          if (!vf || *vf == 0) mgr.txAbort();
          m.put(from, *vf - 1);
          m.put(to, *vt + 1);
        });
      }
    });
    es.stop_advancer();
  }  // crash at an arbitrary persisted boundary
  {
    PRegion region(path, 8192);
    TxManager mgr;
    EpochSys es(&region);
    auto recovered = es.recover();
    es.attach(&mgr);
    TxMontageHashTable m(&mgr, &es, 1, 64);
    m.recover_from(recovered);
    std::uint64_t total = 0;
    std::size_t present = 0;
    for (std::uint64_t k = 0; k < kAccounts; k++) {
      auto v = m.get(k);
      if (v) {
        total += *v;
        present++;
      }
    }
    EXPECT_EQ(present, kAccounts);  // initial inserts were synced
    EXPECT_EQ(total, kAccounts * kInitial);  // transfers atomic at boundary
  }
  std::remove(path.c_str());
}

TEST(TxMontage, KilledRunKeepsEveryLiveSlotBelowTheUsedBound) {
  // A forked child runs transactions with the advancer on until SIGKILL
  // lands at a seeded point, after its allocations crossed at least four
  // bound chunks. The reopened region must hold no live slot at or above
  // its used bound, and recover() must return exactly the slots the
  // recovery predicate accepts over the whole capacity.
  constexpr std::size_t kChunk = PRegion::kBoundChunk;
  constexpr std::size_t kCap = 16 * kChunk;
  constexpr std::uint64_t kFresh = 8;     // new keys per transaction
  constexpr std::uint64_t kMaxTx = 4000;  // kMaxTx * (kFresh + 1) < kCap
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto path = temp_region("txm_kill");
    medley::util::Xoshiro256 rng(seed);
    // 2000 commits allocate over 16000 fresh slots: four chunks at least.
    const std::uint64_t kill_at = 2000 + rng.next_bounded(1500);
    const auto kill_delay = std::chrono::microseconds(rng.next_bounded(500));
    void* shared = ::mmap(nullptr, sizeof(std::atomic<std::uint64_t>),
                          PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                          -1, 0);
    ASSERT_NE(shared, MAP_FAILED);
    auto* commits = new (shared) std::atomic<std::uint64_t>(0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      PRegion region(path, kCap);
      TxManager mgr;
      EpochSys es(&region);
      es.attach(&mgr);
      TxMontageHashTable m(&mgr, &es, 1, 4096);
      es.start_advancer(1);
      medley::util::Xoshiro256 ops(seed + 100);
      for (std::uint64_t t = 0; t < kMaxTx; t++) {
        medley::execute_tx(mgr, [&] {
          for (std::uint64_t j = 0; j < kFresh; j++) {
            m.insert(t * kFresh + j, t);
          }
          m.put(ops.next_bounded((t + 1) * kFresh), t + 1);
          m.remove(ops.next_bounded((t + 1) * kFresh));
        });
        commits->fetch_add(1, std::memory_order_release);
      }
      for (;;) ::pause();  // the parent's SIGKILL ends every path
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(300);
    int status = 0;
    bool exited = false;
    while (commits->load(std::memory_order_acquire) < kill_at &&
           std::chrono::steady_clock::now() < deadline) {
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        exited = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::this_thread::sleep_for(kill_delay);
    if (!exited) {
      ::kill(pid, SIGKILL);
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    }
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child ended before the kill, status " << status;
    ASSERT_GE(commits->load(), kill_at);
    ::munmap(shared, sizeof(std::atomic<std::uint64_t>));

    PRegion region(path, kCap);
    ASSERT_FALSE(region.fresh());
    const std::uint64_t bound = region.header().used_bound.load();
    EXPECT_GE(bound, 4 * kChunk);
    EXPECT_LE(bound, kCap);
    const std::uint64_t pe = region.header().persisted_epoch.load();
    std::set<PBlk*> expected;
    std::size_t live_past_bound = 0;
    for (std::size_t i = 0; i < kCap; i++) {
      PBlk* b = region.slot(i);
      if (b->magic.load() != PBlk::kMagicLive) continue;
      if (i >= bound) live_past_bound++;
      const std::uint64_t ce = b->create_epoch.load();
      const std::uint64_t re = b->retire_epoch.load();
      if (ce <= pe && (re == 0 || re > pe)) expected.insert(b);
    }
    EXPECT_EQ(live_past_bound, 0u);
    EpochSys es(&region);
    const auto recovered = es.recover();
    EXPECT_EQ(std::set<PBlk*>(recovered.begin(), recovered.end()), expected);
    EXPECT_EQ(recovered.size(), expected.size());
    // Failure atomicity: a put's new payload and its predecessor's
    // retirement share one epoch, so each key survives at most once.
    std::set<std::uint64_t> keys;
    for (PBlk* b : recovered) EXPECT_TRUE(keys.insert(b->key).second);
    std::remove(path.c_str());
  }
}
