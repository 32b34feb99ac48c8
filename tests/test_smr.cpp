// Epoch-based reclamation: grace-period discipline, guard pinning, nesting.
//
// The EBR singleton is process-global, so tests use drain() to reach a
// clean state and counting deleters to observe frees.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "smr/ebr.hpp"
#include "test_support.hpp"
#include "util/thread_registry.hpp"

using medley::smr::EBR;

namespace {
std::atomic<int> g_freed{0};

struct Tracked {
  ~Tracked() { g_freed.fetch_add(1); }
};
}  // namespace

TEST(Ebr, RetireDoesNotFreeImmediately) {
  auto& ebr = EBR::instance();
  ebr.drain();
  g_freed = 0;
  ebr.retire(new Tracked);
  EXPECT_EQ(g_freed.load(), 0);  // needs two epoch advances
  ebr.drain();
  EXPECT_EQ(g_freed.load(), 1);
}

TEST(Ebr, DrainFreesBacklog) {
  auto& ebr = EBR::instance();
  ebr.drain();
  g_freed = 0;
  for (int i = 0; i < 100; i++) ebr.retire(new Tracked);
  ebr.drain();
  EXPECT_EQ(g_freed.load(), 100);
  EXPECT_EQ(ebr.limbo_size(), 0u);
}

TEST(Ebr, GuardBlocksAdvanceSoRetiredStayAlive) {
  auto& ebr = EBR::instance();
  ebr.drain();
  g_freed = 0;

  std::atomic<bool> pinned{false}, release{false};
  std::thread reader([&] {
    EBR::Guard g;
    pinned = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  ebr.retire(new Tracked);
  for (int i = 0; i < 8; i++) ebr.collect();
  EXPECT_EQ(g_freed.load(), 0);  // reader's pin froze the epoch

  release = true;
  reader.join();
  ebr.drain();
  EXPECT_EQ(g_freed.load(), 1);
}

TEST(Ebr, NestedGuardsReleaseOnlyAtOutermost) {
  auto& ebr = EBR::instance();
  ebr.drain();
  g_freed = 0;
  {
    EBR::Guard outer;
    {
      EBR::Guard inner;
    }
    // Still pinned by `outer`: a retire in another thread must not free.
    std::thread([&] {
      ebr.retire(new Tracked);
      for (int i = 0; i < 8; i++) ebr.collect();
    }).join();
    EXPECT_EQ(g_freed.load(), 0);
  }
  ebr.drain();
  // The other thread's limbo item frees on ITS next collect; force it from
  // a fresh thread sharing the slot is not guaranteed, so sweep globally by
  // retiring from this thread and draining.
  std::thread([&] { EBR::instance().drain(); }).join();
  // Item may still sit in the (exited) thread's limbo bag until its slot is
  // reused; all we assert here is no premature free above.
}

TEST(Ebr, EpochMonotone) {
  auto& ebr = EBR::instance();
  auto e0 = ebr.epoch();
  ebr.collect();
  ebr.collect();
  EXPECT_GE(ebr.epoch(), e0);
}

TEST(Ebr, ManyThreadsRetireConcurrently) {
  auto& ebr = EBR::instance();
  ebr.drain();
  g_freed = 0;
  constexpr int kThreads = 8, kPerThread = 500;
  medley::test::run_threads(kThreads, [&](int) {
    for (int i = 0; i < kPerThread; i++) {
      EBR::Guard g;
      EBR::instance().retire(new Tracked);
    }
    EBR::instance().drain();
  });
  // Exited threads may leave limbo bags behind; thread ids (and with them
  // the bags) are leased to the next generation of threads, whose drain()
  // sweeps what they inherited. A generation inherits every bag only if
  // its threads hold their ids at the same time: a thread that exits
  // before the next one starts hands it the same lowest free id, leaving
  // higher ids (and their bags) unvisited. So each sweeper leases its id
  // and waits for the others before draining. Two generations make the
  // count exact.
  for (int round = 0; round < 2; round++) {
    std::atomic<int> leased{0};
    medley::test::run_threads(kThreads, [&](int) {
      medley::util::ThreadRegistry::tid();
      leased.fetch_add(1);
      while (leased.load() < kThreads) std::this_thread::yield();
      EBR::instance().drain();
    });
    ebr.drain();
  }
  EXPECT_EQ(g_freed.load(), kThreads * kPerThread);
}

TEST(Ebr, ReaderNeverSeesFreedMemory) {
  // Single-cell hand-off: writer publishes new nodes and retires old ones;
  // readers dereference under a guard. A use-after-free here would crash
  // or produce a torn magic value.
  struct Node {
    std::uint64_t magic = 0xfeedfacecafebeefULL;
    ~Node() { magic = 0; }
  };
  std::atomic<Node*> slot{new Node};
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};

  std::thread writer([&] {
    for (int i = 0; i < 20000; i++) {
      Node* fresh = new Node;
      Node* old = slot.exchange(fresh);
      EBR::instance().retire(old);
    }
    stop = true;
  });
  medley::test::run_threads(3, [&](int) {
    while (!stop.load()) {
      EBR::Guard g;
      Node* n = slot.load();
      if (n->magic != 0xfeedfacecafebeefULL) bad.fetch_add(1);
    }
  });
  writer.join();
  EXPECT_EQ(bad.load(), 0);
  EBR::instance().retire(slot.load());
  EBR::instance().drain();
}
