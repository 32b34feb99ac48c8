// Self-tests for the concurrent-correctness harness: the oracles implement
// the sequential specs, the checkers accept correct histories and reject
// planted bugs, and the schedule driver really serializes and really
// follows the requested interleaving.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <optional>

#include "ds/michael_hashtable.hpp"
#include "ds/ms_queue.hpp"
#include "test_support.hpp"

namespace h = medley::test::harness;
using medley::TxManager;

// ---------------------------------------------------------------------
// Oracles.

TEST(MapOracle, FollowsStdMapSemantics) {
  h::MapOracle o;
  EXPECT_FALSE(o.apply({0, h::OpKind::Get, 1, 0, false, 0, 0, 0}).ok);
  EXPECT_TRUE(o.apply({0, h::OpKind::Insert, 1, 10, false, 0, 0, 0}).ok);
  EXPECT_FALSE(o.apply({0, h::OpKind::Insert, 1, 11, false, 0, 0, 0}).ok);
  auto g = o.apply({0, h::OpKind::Get, 1, 0, false, 0, 0, 0});
  EXPECT_TRUE(g.ok);
  EXPECT_EQ(g.out, 10u);
  auto p = o.apply({0, h::OpKind::Put, 1, 12, false, 0, 0, 0});
  EXPECT_TRUE(p.ok);
  EXPECT_EQ(p.out, 10u);  // put returns the replaced value
  EXPECT_FALSE(o.apply({0, h::OpKind::Put, 2, 20, false, 0, 0, 0}).ok);
  auto r = o.apply({0, h::OpKind::Remove, 1, 0, false, 0, 0, 0});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.out, 12u);
  EXPECT_FALSE(o.apply({0, h::OpKind::Remove, 1, 0, false, 0, 0, 0}).ok);
  EXPECT_EQ(o.state().size(), 1u);  // key 2 remains
}

TEST(QueueOracle, FollowsStdDequeSemantics) {
  h::QueueOracle o;
  EXPECT_FALSE(o.apply({0, h::OpKind::Dequeue, 0, 0, false, 0, 0, 0}).ok);
  o.apply({0, h::OpKind::Enqueue, 7, 0, false, 0, 0, 0});
  o.apply({0, h::OpKind::Enqueue, 8, 0, false, 0, 0, 0});
  auto d = o.apply({0, h::OpKind::Dequeue, 0, 0, false, 0, 0, 0});
  EXPECT_TRUE(d.ok);
  EXPECT_EQ(d.out, 7u);
  EXPECT_EQ(o.state().size(), 1u);
}

// ---------------------------------------------------------------------
// Sequential checker.

TEST(SequentialChecker, AcceptsCorrectHistory) {
  h::Recorder rec;
  TxManager mgr;
  medley::ds::MichaelHashTable<std::uint64_t, std::uint64_t> m(&mgr, 16);
  h::RecordedMap<decltype(m)> rm(&m, &rec);
  rm.insert(0, 1, 10);
  rm.insert(0, 1, 11);
  rm.get(0, 1);
  rm.put(0, 1, 12);
  rm.remove(0, 1);
  rm.remove(0, 1);
  EXPECT_TRUE(h::check_sequential_map(rec.history()));
}

TEST(SequentialChecker, RejectsPlantedWrongResult) {
  // Hand-build a history claiming get(1) found a value in an empty map.
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Get, 1, 0, true, 99, 0, 1},
  };
  EXPECT_FALSE(h::check_sequential_map(hist));
}

TEST(SequentialChecker, RejectsPlantedWrongValue) {
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Insert, 1, 10, true, 0, 0, 1},
      {0, h::OpKind::Get, 1, 0, true, 11, 2, 3},  // wrong: should read 10
  };
  EXPECT_FALSE(h::check_sequential_map(hist));
}

TEST(SequentialChecker, RejectsOverlappingHistory) {
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Insert, 1, 10, true, 0, 0, 5},
      {1, h::OpKind::Get, 1, 0, true, 10, 2, 3},  // inside the insert
  };
  EXPECT_FALSE(h::check_sequential_map(hist));
}

TEST(SequentialChecker, QueueReplayExact) {
  h::Recorder rec;
  TxManager mgr;
  medley::ds::MSQueue<std::uint64_t> q(&mgr);
  h::RecordedQueue<decltype(q)> rq(&q, &rec);
  rq.dequeue(0);  // empty
  rq.enqueue(0, 1);
  rq.enqueue(0, 2);
  rq.dequeue(0);
  rq.enqueue(0, 3);
  rq.dequeue(0);
  rq.dequeue(0);
  rq.dequeue(0);  // empty again
  EXPECT_TRUE(h::check_sequential_queue(rec.history()));
}

// ---------------------------------------------------------------------
// Concurrent invariant checkers: planted violations must be caught.

TEST(SetInvariants, CatchesLostInsert) {
  // insert(1) succeeded but the final state doesn't have key 1.
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Insert, 1, 10, true, 0, 0, 3},
  };
  EXPECT_FALSE(h::check_set_history(hist, {}, {}));
  EXPECT_TRUE(h::check_set_history(hist, {}, {{1, 10}}));
}

TEST(SetInvariants, CatchesDoubleSuccessfulInsert) {
  // Two successful inserts of one key with no remove: impossible.
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Insert, 1, 10, true, 0, 0, 1},
      {1, h::OpKind::Insert, 1, 11, true, 0, 0, 1},
  };
  EXPECT_FALSE(h::check_set_history(hist, {}, {{1, 10}}));
}

TEST(SetInvariants, CatchesNeverWrittenRead) {
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Insert, 1, 10, true, 0, 0, 1},
      {1, h::OpKind::Get, 1, 0, true, 42, 2, 3},  // 42 was never written
  };
  EXPECT_FALSE(h::check_set_history(hist, {}, {{1, 10}}));
}

TEST(SetInvariants, PutCreateCountsTowardPresence) {
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Put, 1, 10, false, 0, 0, 1},  // created
      {0, h::OpKind::Put, 1, 11, true, 10, 2, 3},  // replaced
  };
  EXPECT_TRUE(h::check_set_history(hist, {}, {{1, 11}}));
  EXPECT_FALSE(h::check_set_history(hist, {}, {}));
}

TEST(QueueInvariants, CatchesDuplicatedValue) {
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Enqueue, 5, 0, true, 0, 0, 1},
      {1, h::OpKind::Dequeue, 0, 0, true, 5, 2, 3},
      {2, h::OpKind::Dequeue, 0, 0, true, 5, 4, 5},  // 5 dequeued twice
  };
  EXPECT_FALSE(h::check_queue_history(hist, {}, {}));
}

TEST(QueueInvariants, CatchesLostValue) {
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Enqueue, 5, 0, true, 0, 1, 2},
  };
  // Value 5 neither dequeued nor in the final drain: lost.
  EXPECT_FALSE(h::check_queue_history(hist, {}, {}));
  EXPECT_TRUE(h::check_queue_history(hist, {}, {5}));
}

TEST(QueueInvariants, CatchesFifoInversion) {
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Enqueue, 1, 0, true, 0, 0, 1},
      {0, h::OpKind::Enqueue, 2, 0, true, 0, 2, 3},
      {1, h::OpKind::Dequeue, 0, 0, true, 2, 4, 5},   // 2 out first...
      {1, h::OpKind::Dequeue, 0, 0, true, 1, 6, 7},   // ...then 1: inverted
  };
  EXPECT_FALSE(h::check_queue_history(hist, {}, {}));
  std::vector<h::OpRecord> good{
      {0, h::OpKind::Enqueue, 1, 0, true, 0, 0, 1},
      {0, h::OpKind::Enqueue, 2, 0, true, 0, 2, 3},
      {1, h::OpKind::Dequeue, 0, 0, true, 1, 4, 5},
      {1, h::OpKind::Dequeue, 0, 0, true, 2, 6, 7},
  };
  EXPECT_TRUE(h::check_queue_history(good, {}, {}));
}

TEST(QueueInvariants, CatchesOvertakenStrandedValue) {
  // 1 enqueued strictly before 2; 2 was dequeued while 1 stayed queued.
  std::vector<h::OpRecord> hist{
      {0, h::OpKind::Enqueue, 1, 0, true, 0, 0, 1},
      {0, h::OpKind::Enqueue, 2, 0, true, 0, 2, 3},
      {1, h::OpKind::Dequeue, 0, 0, true, 2, 4, 5},
  };
  EXPECT_FALSE(h::check_queue_history(hist, {}, {1}));
}

TEST(QueueInvariants, AcceptsDequeueStartingBeforeOverlappingEnqueue) {
  // The dequeue starts first (so it sorts first by start tick), but the
  // enqueue begins before the dequeue ends: the enqueue may linearize
  // first, so returning its value is legal.
  std::vector<h::OpRecord> hist{
      {1, h::OpKind::Dequeue, 0, 0, true, 5, 0, 3},
      {0, h::OpKind::Enqueue, 5, 0, true, 0, 1, 2},
  };
  EXPECT_TRUE(h::check_queue_history(hist, {}, {}));
}

TEST(QueueInvariants, RejectsDequeueEndingBeforeItsEnqueueStarts) {
  std::vector<h::OpRecord> hist{
      {1, h::OpKind::Dequeue, 0, 0, true, 5, 0, 1},
      {0, h::OpKind::Enqueue, 5, 0, true, 0, 2, 3},
  };
  EXPECT_FALSE(h::check_queue_history(hist, {}, {}));
}

// ---------------------------------------------------------------------
// Schedule driver.

TEST(ScheduleDriver, FollowsExactInterleaving) {
  h::ScheduleDriver d;
  std::vector<int> order;
  d.add_thread({[&] { order.push_back(0); }, [&] { order.push_back(1); }});
  d.add_thread({[&] { order.push_back(10); }, [&] { order.push_back(11); }});
  d.run({1, 0, 0, 1});
  EXPECT_EQ(order, (std::vector<int>{10, 0, 1, 11}));
}

TEST(ScheduleDriver, StepsAreMutuallyExclusive) {
  h::ScheduleDriver d;
  std::atomic<int> inside{0};
  bool overlapped = false;
  auto step = [&] {
    if (inside.fetch_add(1) != 0) overlapped = true;
    inside.fetch_sub(1);
  };
  for (int t = 0; t < 4; t++) {
    d.add_thread({step, step, step});
  }
  d.run(d.shuffled(123));
  EXPECT_FALSE(overlapped);
}

TEST(ScheduleDriver, RejectsMalformedSchedule) {
  h::ScheduleDriver d;
  d.add_thread({[] {}});
  EXPECT_THROW(d.run({0, 0}), std::invalid_argument);
  EXPECT_THROW(d.run({1}), std::invalid_argument);
}

TEST(ScheduleDriver, PropagatesStepException) {
  h::ScheduleDriver d;
  bool later_ran = false;
  d.add_thread({[] { throw std::runtime_error("boom"); },
                [&] { later_ran = true; }});
  d.add_thread({[] {}});
  EXPECT_THROW(d.run({0, 1, 0}), std::runtime_error);
  EXPECT_FALSE(later_ran);  // failed thread's remaining steps are skipped
}

TEST(ScheduleDriver, ShuffledIsDeterministic) {
  h::ScheduleDriver d;
  for (int t = 0; t < 3; t++) d.add_thread({[] {}, [] {}, [] {}});
  EXPECT_EQ(d.shuffled(7), d.shuffled(7));
  EXPECT_EQ(d.round_robin(), (std::vector<int>{0, 1, 2, 0, 1, 2, 0, 1, 2}));
}

// ---------------------------------------------------------------------
// End-to-end: recorded real structure under the driver, exact replay.

TEST(HarnessEndToEnd, DeterministicInterleavingExactCheck) {
  TxManager mgr;
  medley::ds::MichaelHashTable<std::uint64_t, std::uint64_t> m(&mgr, 16);
  h::Recorder rec;
  h::RecordedMap<decltype(m)> rm(&m, &rec);

  h::ScheduleDriver d;
  d.add_thread({[&] { rm.insert(0, 1, 10); },
                [&] { rm.put(0, 1, 11); },
                [&] { rm.remove(0, 2); }});
  d.add_thread({[&] { rm.get(1, 1); },
                [&] { rm.insert(1, 2, 20); },
                [&] { rm.get(1, 2); }});
  d.run({0, 1, 0, 1, 1, 0});
  EXPECT_TRUE(h::check_sequential_map(rec.history()));
  EXPECT_EQ(m.get(1), std::optional<std::uint64_t>(11));
  EXPECT_FALSE(m.contains(2));  // t0's remove(2) ran after t1's insert? No:
  // schedule {0,1,0,1,1,0}: t0 insert, t1 get, t0 put, t1 insert(2),
  // t1 get(2), t0 remove(2) — so key 2 was inserted then removed.
}
