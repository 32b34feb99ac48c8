// Cross-structure transactional isolation: the paper's flagship composition
// scenario. Accounts live half in a Michael hash table and half in a Fraser
// skiplist; threads move money between arbitrary pairs of accounts — often
// crossing the structure boundary — inside NBTC transactions. Strict
// serializability demands the global sum is conserved at every instant a
// transaction could observe, and the harness's invariant checkers validate
// the recorded effect histories.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "ds/fraser_skiplist.hpp"
#include "ds/michael_hashtable.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::TransactionAborted;
using medley::TxManager;
using Hash = medley::ds::MichaelHashTable<std::uint64_t, std::uint64_t>;
using Skip = medley::ds::FraserSkiplist<std::uint64_t, std::uint64_t>;

namespace h = medley::test::harness;

namespace {

constexpr std::uint64_t kAccounts = 16;   // ids [0, 16): even->hash, odd->skip
constexpr std::uint64_t kInitial = 1000;  // per-account opening balance

struct Bank {
  Hash hash;
  Skip skip;

  explicit Bank(TxManager* mgr) : hash(mgr, 64), skip(mgr) {
    for (std::uint64_t a = 0; a < kAccounts; a++) {
      if (a % 2 == 0) {
        hash.insert(a, kInitial);
      } else {
        skip.insert(a, kInitial);
      }
    }
  }

  std::optional<std::uint64_t> read(std::uint64_t a) {
    return (a % 2 == 0) ? hash.get(a) : skip.get(a);
  }

  void write(std::uint64_t a, std::uint64_t v) {
    if (a % 2 == 0) {
      hash.put(a, v);
    } else {
      // remove+insert inside the transaction is equivalent to the
      // skiplist's put and exercises the composition harder.
      skip.remove(a);
      skip.insert(a, v);
    }
  }

  std::uint64_t total() {
    std::uint64_t sum = 0;
    for (std::uint64_t a = 0; a < kAccounts; a++) {
      sum += read(a).value_or(0);
    }
    return sum;
  }
};

}  // namespace

TEST(TxIsolation, SumConservedUnderMixedStructureTransfers) {
  TxManager mgr;
  Bank bank(&mgr);
  constexpr int kThreads = 8, kTransfers = 1200;
  std::atomic<std::uint64_t> committed{0};

  h::run_seeded(kThreads, 2026, [&](int t, medley::util::Xoshiro256& rng) {
    (void)t;
    for (int i = 0; i < kTransfers; i++) {
      const auto from = rng.next_bounded(kAccounts);
      const auto to = rng.next_bounded(kAccounts);
      if (from == to) continue;
      const auto amount = 1 + rng.next_bounded(5);
      try {
        medley::execute_tx(mgr, [&] {
          auto src = bank.read(from);
          auto dst = bank.read(to);
          ASSERT_TRUE(src.has_value());
          ASSERT_TRUE(dst.has_value());
          if (*src < amount) mgr.txAbort();  // insufficient funds
          bank.write(from, *src - amount);
          bank.write(to, *dst + amount);
        });
        committed.fetch_add(1, std::memory_order_relaxed);
      } catch (const TransactionAborted&) {
        // user abort without retry: transfer skipped, no partial effects
      }
    }
  });

  EXPECT_EQ(bank.total(), kAccounts * kInitial);
  EXPECT_GT(committed.load(), 0u);
  // Every account must still exist (remove+insert never leaks an account).
  for (std::uint64_t a = 0; a < kAccounts; a++) {
    EXPECT_TRUE(bank.read(a).has_value()) << "account " << a;
  }
}

TEST(TxIsolation, ConcurrentReadersNeverSeeTornTransfers) {
  // Writers shuttle money between one hash account and one skiplist
  // account; readers snapshot both inside transactions. Any committed
  // reader snapshot must show the invariant sum — a torn (non-isolated)
  // read would surface as a different total.
  TxManager mgr;
  Bank bank(&mgr);
  constexpr std::uint64_t kA = 0, kB = 1;  // hash resp. skiplist account
  const std::uint64_t expected =
      bank.read(kA).value() + bank.read(kB).value();
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> snapshots{0};

  h::run_seeded(8, 7, [&](int t, medley::util::Xoshiro256& rng) {
    if (t < 4) {  // writers
      for (int i = 0; i < 800; i++) {
        const auto amount = 1 + rng.next_bounded(3);
        try {
          medley::execute_tx(mgr, [&] {
            auto a = bank.read(kA);
            auto b = bank.read(kB);
            if (!a || *a < amount) mgr.txAbort();
            bank.write(kA, *a - amount);
            bank.write(kB, b.value_or(0) + amount);
          });
        } catch (const TransactionAborted&) {
        }
      }
    } else {  // readers
      for (int i = 0; i < 800; i++) {
        // A read attempt that later aborts MAY legally observe a torn
        // pair (reads validate at commit, not at load) — only the
        // attempt run_tx actually commits counts as a snapshot.
        std::uint64_t sum = 0;
        try {
          medley::execute_tx(mgr, [&] {
            auto a = bank.read(kA);
            auto b = bank.read(kB);
            sum = a.value_or(0) + b.value_or(0);
          });
          if (sum != expected) torn.store(true);
          snapshots.fetch_add(1, std::memory_order_relaxed);
        } catch (const TransactionAborted&) {
        }
      }
    }
  });

  EXPECT_FALSE(torn.load()) << "a committed reader saw a torn transfer";
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(bank.total(), kAccounts * kInitial);
}

TEST(TxIsolation, DeterministicConflictIsSerializable) {
  // Pin the exact interleaving with the schedule driver: t0 begins a
  // cross-structure transfer, t1 commits a competing transfer to the same
  // accounts mid-flight, t0 tries to commit. Whatever the outcome (t0 may
  // conflict-abort), the final state must equal SOME serial order — with
  // disjoint amounts the reachable states are enumerable.
  TxManager mgr;
  Bank bank(&mgr);
  std::atomic<bool> t0_committed{false};

  h::ScheduleDriver d;
  d.add_thread({
      [&] { mgr.txBegin(); },
      [&] {
        try {
          auto v = bank.read(0);
          bank.write(0, *v - 10);
          bank.write(1, *bank.read(1) + 10);
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
      [&] {
        try {
          medley::execute_tx(mgr, [&] {
            auto v = bank.read(0);
            bank.write(0, *v - 100);
            bank.write(1, *bank.read(1) + 100);
          });
        } catch (const TransactionAborted&) {
        }
      },
  });
  // t0 begins and executes its body, t1 commits a full transfer, t0 ends.
  d.run({0, 0, 1, 0});

  const auto a0 = bank.read(0).value();
  const auto a1 = bank.read(1).value();
  EXPECT_EQ(a0 + a1, 2 * kInitial);
  if (t0_committed.load()) {
    EXPECT_EQ(a0, kInitial - 110);
  } else {
    EXPECT_EQ(a0, kInitial - 100);  // only t1's transfer landed
  }
  EXPECT_EQ(bank.total(), kAccounts * kInitial);
}
