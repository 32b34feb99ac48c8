// TxManager lifecycle: begin/end/abort state machine, cleanup deferral,
// speculative allocation bookkeeping, opacity validation, statistics.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "core/medley.hpp"
#include "smr/ebr.hpp"
#include "test_support.hpp"

using medley::AbortReason;
using medley::CASObj;
using medley::TransactionAborted;
using medley::TxManager;
using medley::test::Harness;
using U64Obj = CASObj<std::uint64_t>;

TEST(TxManager, EmptyTransactionCommits) {
  TxManager mgr;
  mgr.txBegin();
  mgr.txEnd();
  EXPECT_EQ(mgr.stats().commits, 1u);
  EXPECT_EQ(mgr.stats().aborts, 0u);
}

TEST(TxManager, NestingThrowsLogicError) {
  TxManager mgr;
  mgr.txBegin();
  EXPECT_THROW(mgr.txBegin(), std::logic_error);
  mgr.txEnd();
}

TEST(TxManager, EndOutsideTxThrowsLogicError) {
  TxManager mgr;
  EXPECT_THROW(mgr.txEnd(), std::logic_error);
}

TEST(TxManager, AbortOutsideTxThrowsLogicError) {
  TxManager mgr;
  EXPECT_THROW(mgr.txAbort(), std::logic_error);
}

TEST(TxManager, InTxReflectsState) {
  TxManager mgr;
  EXPECT_FALSE(mgr.in_tx());
  mgr.txBegin();
  EXPECT_TRUE(mgr.in_tx());
  mgr.txEnd();
  EXPECT_FALSE(mgr.in_tx());
}

TEST(TxManager, InTxFalseAfterAbort) {
  TxManager mgr;
  try {
    mgr.txBegin();
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_FALSE(mgr.in_tx());
}

TEST(TxManager, TwoManagersIndependentState) {
  TxManager m1, m2;
  m1.txBegin();
  EXPECT_TRUE(m1.in_tx());
  EXPECT_FALSE(m2.in_tx());
  m1.txEnd();
}

TEST(TxManager, CleanupsDeferredToCommitInOrder) {
  TxManager mgr;
  Harness h(&mgr);
  std::vector<int> order;
  mgr.txBegin();
  h.addToCleanups([&] { order.push_back(1); });
  h.addToCleanups([&] { order.push_back(2); });
  EXPECT_TRUE(order.empty());  // not yet
  mgr.txEnd();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(TxManager, CleanupsDiscardedOnAbort) {
  TxManager mgr;
  Harness h(&mgr);
  bool ran = false;
  try {
    mgr.txBegin();
    h.addToCleanups([&] { ran = true; });
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_FALSE(ran);
}

TEST(TxManager, CleanupOutsideTxRunsImmediately) {
  TxManager mgr;
  Harness h(&mgr);
  bool ran = false;
  h.addToCleanups([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(TxManager, CleanupsRunOutsideTransactionContext) {
  // Cleanup code must execute as plain code: active_ctx() == nullptr.
  TxManager mgr;
  Harness h(&mgr);
  bool was_plain = false;
  mgr.txBegin();
  h.addToCleanups(
      [&] { was_plain = (TxManager::active_ctx() == nullptr); });
  mgr.txEnd();
  EXPECT_TRUE(was_plain);
}

namespace {
std::atomic<int> g_live{0};
struct Counted {
  Counted() { g_live.fetch_add(1); }
  ~Counted() { g_live.fetch_sub(1); }
};
}  // namespace

TEST(TxManager, TNewReclaimedOnAbort) {
  TxManager mgr;
  Harness h(&mgr);
  medley::smr::EBR::instance().drain();
  int before = g_live.load();
  try {
    mgr.txBegin();
    h.tNew<Counted>();
    h.tNew<Counted>();
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  medley::smr::EBR::instance().drain();  // abort path retires via EBR
  EXPECT_EQ(g_live.load(), before);
}

TEST(TxManager, TNewSurvivesCommit) {
  TxManager mgr;
  Harness h(&mgr);
  int before = g_live.load();
  Counted* p = nullptr;
  mgr.txBegin();
  p = h.tNew<Counted>();
  mgr.txEnd();
  medley::smr::EBR::instance().drain();
  EXPECT_EQ(g_live.load(), before + 1);  // ownership passed to caller
  delete p;
}

TEST(TxManager, TDeleteInsideTxReclaims) {
  TxManager mgr;
  Harness h(&mgr);
  medley::smr::EBR::instance().drain();
  int before = g_live.load();
  mgr.txBegin();
  auto* p = h.tNew<Counted>();
  h.tDelete(p);
  mgr.txEnd();
  medley::smr::EBR::instance().drain();
  EXPECT_EQ(g_live.load(), before);
}

TEST(TxManager, TRetireDeferredToCommit) {
  TxManager mgr;
  Harness h(&mgr);
  medley::smr::EBR::instance().drain();
  int before = g_live.load();
  auto* p = new Counted;  // pre-existing node being unlinked by the tx
  mgr.txBegin();
  h.tRetire(p);
  EXPECT_EQ(g_live.load(), before + 1);  // still alive inside the tx
  mgr.txEnd();
  medley::smr::EBR::instance().drain();
  EXPECT_EQ(g_live.load(), before);
}

TEST(TxManager, TRetireDiscardedOnAbort) {
  TxManager mgr;
  Harness h(&mgr);
  medley::smr::EBR::instance().drain();
  auto* p = new Counted;
  int with_p = g_live.load();
  try {
    mgr.txBegin();
    h.tRetire(p);
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  medley::smr::EBR::instance().drain();
  EXPECT_EQ(g_live.load(), with_p);  // abort => the unlink never happened
  delete p;
}

TEST(TxManager, ValidateReadsThrowsOnStaleRead) {
  TxManager mgr;
  Harness h(&mgr);
  U64Obj a(7);
  bool threw = false;
  try {
    mgr.txBegin();
    auto v = a.nbtcLoad();
    h.addToReadSet(&a, v);
    std::thread([&] { ASSERT_TRUE(a.CAS(7, 8)); }).join();
    mgr.validateReads();  // opacity: abort now, not at commit
  } catch (const TransactionAborted& e) {
    threw = true;
    EXPECT_EQ(e.reason(), AbortReason::Validation);
  }
  EXPECT_TRUE(threw);
}

TEST(TxManager, ValidateReadsPassesWhenFresh) {
  TxManager mgr;
  Harness h(&mgr);
  U64Obj a(7);
  mgr.txBegin();
  auto v = a.nbtcLoad();
  h.addToReadSet(&a, v);
  mgr.validateReads();  // must not throw
  mgr.txEnd();
  EXPECT_EQ(mgr.stats().commits, 1u);
}

TEST(TxManager, RunTxRetriesUntilCommit) {
  TxManager mgr;
  U64Obj a(0);
  std::atomic<int> attempts{0};
  // Interfering thread keeps flipping `a` for a while.
  std::atomic<bool> stop{false};
  std::thread noise([&] {
    while (!stop.load()) {
      auto v = a.load();
      a.CAS(v, v);  // counter churn: forces occasional validation failures
    }
  });
  // A failed nbtcCAS becomes a User abort, which the default policy does
  // not retry: a noise bump between the load and the CAS would end the
  // call uncommitted. Retry User aborts too.
  medley::TxPolicy retry_user;
  retry_user.retry_user = true;
  auto aborts = medley::execute_tx(
                    mgr,
                    [&] {
                      attempts.fetch_add(1);
                      auto v = a.nbtcLoad();
                      if (!a.nbtcCAS(v, v + 1, true, true)) mgr.txAbort();
                    },
                    retry_user)
                    .stats;
  stop = true;
  noise.join();
  EXPECT_EQ(a.load(), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(attempts.load()), aborts.aborts() + 1);
  EXPECT_EQ(aborts.commits, 1u);
  EXPECT_EQ(aborts.retries, aborts.aborts());
}

TEST(TxManager, BeginHookRunsInsideTx) {
  TxManager mgr;
  bool hook_in_tx = false;
  mgr.set_begin_hook([&] { hook_in_tx = (TxManager::active_ctx() != nullptr); });
  mgr.txBegin();
  mgr.txEnd();
  EXPECT_TRUE(hook_in_tx);
}

TEST(TxManager, StatsAggregateAcrossThreads) {
  TxManager mgr;
  medley::test::run_threads(4, [&](int) {
    for (int i = 0; i < 10; i++) {
      mgr.txBegin();
      mgr.txEnd();
    }
  });
  EXPECT_EQ(mgr.stats().commits, 40u);
  mgr.reset_stats();
  EXPECT_EQ(mgr.stats().commits, 0u);
}

TEST(TxManager, AbortReasonTaxonomyReported) {
  TxManager mgr;
  try {
    mgr.txBegin();
    mgr.txAbort();
  } catch (const TransactionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::User);
    EXPECT_NE(std::string(e.what()).find("user"), std::string::npos);
  }
}

// ---------------------------------------------------------------------
// Abort paths: explicit user aborts, conflict-induced aborts pinned down
// with the deterministic schedule driver, and run_tx retry accounting.

namespace h = medley::test::harness;

TEST(TxAbortPaths, ExplicitAbortRollsBackAndCounts) {
  TxManager mgr;
  mgr.reset_stats();
  U64Obj a(5);
  try {
    mgr.txBegin();
    auto v = a.nbtcLoad();
    EXPECT_TRUE(a.nbtcCAS(v, v + 100, true, true));
    mgr.txAbort();
    FAIL() << "txAbort must throw";
  } catch (const TransactionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::User);
  }
  EXPECT_EQ(a.load(), 5u);  // speculative write rolled back
  auto st = mgr.stats();
  EXPECT_EQ(st.aborts, 1u);
  EXPECT_EQ(st.user_aborts, 1u);
  EXPECT_EQ(st.commits, 0u);
}

TEST(TxAbortPaths, DeterministicValidationAbort) {
  // t0 reads inside a transaction; t1 overwrites the cell and commits
  // before t0 reaches txEnd. The exact interleaving is pinned by the
  // schedule driver, so the abort is guaranteed, not probabilistic.
  TxManager mgr;
  Harness hx(&mgr);
  mgr.reset_stats();
  U64Obj a(1);
  std::optional<AbortReason> reason;

  h::ScheduleDriver d;
  d.add_thread({
      [&] {
        mgr.txBegin();
        auto v = a.nbtcLoad();
        EXPECT_EQ(v, 1u);
        hx.addToReadSet(&a, v);  // the linearizing read of a lookup
      },
      [&] {
        try {
          mgr.txEnd();
        } catch (const TransactionAborted& e) {
          reason = e.reason();
        }
      },
  });
  d.add_thread({
      [&] { EXPECT_TRUE(a.CAS(1, 2)); },  // non-transactional interference
  });
  d.run({0, 1, 0});

  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, AbortReason::Validation);
  EXPECT_EQ(a.load(), 2u);  // the interferer's value survived
  auto st = mgr.stats();
  EXPECT_EQ(st.validation_aborts, 1u);
  EXPECT_EQ(st.commits, 0u);
}

TEST(TxAbortPaths, DeterministicConflictAbortViaHelper) {
  // t0 installs its descriptor on `a` (speculative CAS), then t1 touches
  // the same cell from outside any transaction. The helper path must
  // finalize t0's InPrep descriptor as Aborted; t0 then discovers the
  // forced abort at commit.
  TxManager mgr;
  mgr.reset_stats();
  U64Obj a(10);
  std::optional<AbortReason> reason;
  std::uint64_t t1_observed = 0;

  h::ScheduleDriver d;
  d.add_thread({
      [&] {
        mgr.txBegin();
        auto v = a.nbtcLoad();
        EXPECT_TRUE(a.nbtcCAS(v, v + 1, true, true));  // descriptor installed
      },
      [&] {
        try {
          mgr.txEnd();
        } catch (const TransactionAborted& e) {
          reason = e.reason();
        }
      },
  });
  d.add_thread({
      [&] { t1_observed = a.load(); },  // helps: finalizes t0's descriptor
  });
  d.run({0, 1, 0});

  // The helper aborted the InPrep transaction, so t1 read the old value.
  EXPECT_EQ(t1_observed, 10u);
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, AbortReason::Conflict);
  EXPECT_EQ(a.load(), 10u);
  EXPECT_EQ(mgr.stats().conflict_aborts, 1u);
}

TEST(TxAbortPaths, RunTxUserAbortNotRetriedByDefault) {
  TxManager mgr;
  mgr.reset_stats();
  int attempts = 0;
  auto aborts = medley::execute_tx(mgr, [&] {
    attempts++;
    mgr.txAbort();
  }).stats;
  EXPECT_EQ(attempts, 1);  // user abort: give up, don't retry
  EXPECT_EQ(aborts.user_aborts, 1u);
  EXPECT_EQ(aborts.retries, 0u);
  EXPECT_EQ(aborts.commits, 0u);
  EXPECT_EQ(mgr.stats().user_aborts, 1u);
}

TEST(TxAbortPaths, RunTxRetriesUserAbortWhenAsked) {
  TxManager mgr;
  mgr.reset_stats();
  int attempts = 0;
  medley::TxPolicy retry_user;
  retry_user.retry_user = true;
  auto aborts = medley::execute_tx(
                    mgr,
                    [&] {
                      attempts++;
                      if (attempts < 4) mgr.txAbort();  // bail 3x, then commit
                    },
                    retry_user)
                    .stats;
  EXPECT_EQ(attempts, 4);
  EXPECT_EQ(aborts.user_aborts, 3u);
  EXPECT_EQ(aborts.retries, 3u);
  EXPECT_EQ(aborts.commits, 1u);
  auto st = mgr.stats();
  EXPECT_EQ(st.user_aborts, 3u);
  EXPECT_EQ(st.commits, 1u);
}

TEST(TxAbortPaths, RunTxCountsConflictRetries) {
  // Deterministically force exactly one validation abort, then commit:
  // run_tx must report exactly one retry.
  TxManager mgr;
  Harness hx(&mgr);
  mgr.reset_stats();
  U64Obj a(0);
  int attempts = 0;

  h::ScheduleDriver d;
  d.add_thread({
      [&] {
        // Attempt 1 spans two steps via a manual begin/read...
        mgr.txBegin();
        attempts++;
        hx.addToReadSet(&a, a.nbtcLoad());
      },
      [&] {
        // ...its txEnd fails (t1 interfered), then run_tx-style retry
        // commits cleanly in the same step.
        bool first_failed = false;
        try {
          mgr.txEnd();
        } catch (const TransactionAborted&) {
          first_failed = true;
        }
        EXPECT_TRUE(first_failed);
        auto aborts = medley::execute_tx(mgr, [&] {
          attempts++;
          auto v = a.nbtcLoad();
          EXPECT_TRUE(a.nbtcCAS(v, v + 1, true, true));
        }).stats;
        EXPECT_EQ(aborts.aborts(), 0u);
        EXPECT_EQ(aborts.commits, 1u);
      },
  });
  d.add_thread({
      [&] { EXPECT_TRUE(a.CAS(0, 7)); },
  });
  d.run({0, 1, 0});

  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(a.load(), 8u);
  auto st = mgr.stats();
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(st.validation_aborts, 1u);
}

TEST(TxAbortPaths, AbortedTransactionLeavesThreadReusable) {
  // After every flavour of abort the thread must be able to run a fresh
  // committing transaction.
  TxManager mgr;
  U64Obj a(0);
  for (int round = 0; round < 3; round++) {
    try {
      mgr.txBegin();
      auto v = a.nbtcLoad();
      a.nbtcCAS(v, v + 1, true, true);
      mgr.txAbort();
    } catch (const TransactionAborted&) {
    }
    EXPECT_FALSE(mgr.in_tx());
    medley::execute_tx(mgr, [&] {
      auto v = a.nbtcLoad();
      EXPECT_TRUE(a.nbtcCAS(v, v + 10, true, true));
    });
  }
  EXPECT_EQ(a.load(), 30u);
}

TEST(TxAbortPaths, CapacityAbortIsRetriedByRunTx) {
  // txAbortCapacity models transient resource exhaustion (e.g. Montage
  // region full until the next epoch advance); run_tx must retry it even
  // with default settings, unlike a user abort.
  TxManager mgr;
  mgr.reset_stats();
  int attempts = 0;
  auto aborts = medley::execute_tx(mgr, [&] {
    if (++attempts < 3) mgr.txAbortCapacity();
  }).stats;
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(aborts.capacity_aborts, 2u);
  EXPECT_EQ(aborts.retries, 2u);
  auto st = mgr.stats();
  EXPECT_EQ(st.capacity_aborts, 2u);
  EXPECT_EQ(st.commits, 1u);
  EXPECT_THROW(mgr.txAbortCapacity(), std::logic_error);  // outside any tx
}

// ---------------------------------------------------------------------
// TxDomain: managers sharing a domain compose into one transaction; a
// manager from a foreign domain refuses to.

TEST(TxDomain, SharedDomainManagersComposeIntoOneTransaction) {
  auto domain = std::make_shared<medley::TxDomain>();
  TxManager mgr_a(domain), mgr_b(domain);
  U64Obj xa{1}, xb{2};
  Harness ha(&mgr_a), hb(&mgr_b);

  // One transaction rooted at A writes cells of structures under BOTH
  // managers; the commit is one status-word CAS, so either both values
  // land or neither.
  mgr_a.txBegin();
  {
    medley::OpStarter op_a(&mgr_a);
    medley::core::TxDomain::active_ctx()->spec_interval = true;
    EXPECT_TRUE(xa.nbtcCAS(1, 10, false, false));
  }
  {
    medley::OpStarter op_b(&mgr_b);  // joins B into A's transaction
    medley::core::TxDomain::active_ctx()->spec_interval = true;
    EXPECT_TRUE(xb.nbtcCAS(2, 20, false, false));
  }
  // Mid-flight, neither speculative value is observable by plain loads
  // from this thread's perspective pre-commit... they are our own writes,
  // so verify via the descriptor instead: both writes, ONE write set.
  EXPECT_EQ(mgr_a.my_desc()->write_count(), 2);
  EXPECT_EQ(mgr_a.my_desc(), mgr_b.my_desc()) << "one thread, one desc";
  mgr_a.txEnd();

  EXPECT_EQ(xa.load(), 10u);
  EXPECT_EQ(xb.load(), 20u);
  // Billing: the transaction is rooted at A; B saw traffic but no bill.
  EXPECT_EQ(mgr_a.stats().commits, 1u);
  EXPECT_EQ(mgr_b.stats().commits, 0u);
}

TEST(TxDomain, SharedDomainAbortRollsBackAcrossManagers) {
  auto domain = std::make_shared<medley::TxDomain>();
  TxManager mgr_a(domain), mgr_b(domain);
  U64Obj xa{1}, xb{2};

  try {
    mgr_a.txBegin();
    {
      medley::OpStarter op(&mgr_a);
      medley::core::TxDomain::active_ctx()->spec_interval = true;
      EXPECT_TRUE(xa.nbtcCAS(1, 10, false, false));
    }
    {
      medley::OpStarter op(&mgr_b);
      medley::core::TxDomain::active_ctx()->spec_interval = true;
      EXPECT_TRUE(xb.nbtcCAS(2, 20, false, false));
    }
    mgr_a.txAbort();
    FAIL() << "txAbort must throw";
  } catch (const TransactionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::User);
  }
  EXPECT_EQ(xa.load(), 1u) << "manager-A write survived the abort";
  EXPECT_EQ(xb.load(), 2u) << "manager-B write survived the abort";
  EXPECT_EQ(mgr_a.stats().user_aborts, 1u);
  EXPECT_EQ(mgr_b.stats().aborts, 0u);
}

TEST(TxDomain, ForeignDomainManagerThrowsInsteadOfSilentlyMixing) {
  TxManager mgr_a;  // private domain
  TxManager mgr_b;  // different private domain
  mgr_a.txBegin();
  EXPECT_THROW({ medley::OpStarter op(&mgr_b); }, std::logic_error);
  mgr_a.txEnd();
}

TEST(TxDomain, JoinedManagerHooksFireOncePerTransaction) {
  auto domain = std::make_shared<medley::TxDomain>();
  TxManager mgr_a(domain), mgr_b(domain);
  int b_begins = 0, b_commits = 0, b_aborts = 0;
  mgr_b.set_begin_hook([&] { b_begins++; });
  mgr_b.set_end_hook([&](bool committed) {
    (committed ? b_commits : b_aborts)++;
  });

  // B untouched: its hooks stay silent.
  mgr_a.txBegin();
  mgr_a.txEnd();
  EXPECT_EQ(b_begins, 0);
  EXPECT_EQ(b_commits, 0);

  // B touched twice in one transaction: begin hook fires once (at join),
  // end hook once (at commit).
  mgr_a.txBegin();
  { medley::OpStarter op(&mgr_b); }
  { medley::OpStarter op(&mgr_b); }
  mgr_a.txEnd();
  EXPECT_EQ(b_begins, 1);
  EXPECT_EQ(b_commits, 1);
  EXPECT_EQ(b_aborts, 0);

  // And the abort path reports the outcome to every joined manager.
  try {
    mgr_a.txBegin();
    { medley::OpStarter op(&mgr_b); }
    mgr_a.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_EQ(b_begins, 2);
  EXPECT_EQ(b_aborts, 1);
}

TEST(TxDomain, DedupReadRegistrationSkipsTrackedCells) {
  // The mechanism behind FraserSkiplist's restarted-scan footprint bound:
  // seedReadSetDedup folds every already-tracked cell into the dedup set,
  // after which addToReadSetDedup registers only NEW cells. Scope is one
  // transaction (the set is generation-cleared at txBegin, O(1)).
  TxManager mgr;
  Harness h(&mgr);
  U64Obj x{5}, y{6};

  mgr.txBegin();
  h.addToReadSet(&x, x.nbtcLoad());
  h.addToReadSet(&x, x.nbtcLoad());  // plain interface never dedups
  EXPECT_EQ(mgr.my_desc()->read_count(), 2);

  h.seedReadSetDedup();  // engage: x is now tracked
  h.addToReadSetDedup(&x, x.nbtcLoad());
  EXPECT_EQ(mgr.my_desc()->read_count(), 2) << "tracked cell re-registered";
  h.addToReadSetDedup(&y, y.nbtcLoad());  // new cell: registered + tracked
  EXPECT_EQ(mgr.my_desc()->read_count(), 3);
  h.addToReadSetDedup(&y, y.nbtcLoad());
  EXPECT_EQ(mgr.my_desc()->read_count(), 3);
  mgr.txEnd();

  // Fresh transaction: the dedup set is reset and registration is fresh.
  mgr.txBegin();
  h.addToReadSetDedup(&x, x.nbtcLoad());
  EXPECT_EQ(mgr.my_desc()->read_count(), 1);
  mgr.txEnd();
}
