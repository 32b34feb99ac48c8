#pragma once
// Sequential-spec checkers over recorded histories.
//
// Two strengths of check, matched to two ways of running:
//
// 1. check_sequential_map / check_sequential_queue — *exact* replay. Valid
//    only for histories whose operation intervals do not overlap (single
//    thread, or multiple threads stepped one-at-a-time by ScheduleDriver).
//    Every recorded result must equal what the std::map / std::deque oracle
//    produces in the same order; the real structure must behave, op for op,
//    like the reference.
//
// 2. check_set_history / check_queue_history — *sound* invariants for truly
//    concurrent (overlapping) histories, where the linearization order is
//    unknown. These check only consequences that hold for EVERY possible
//    linearization of a correct object, so a failure is always a real bug:
//      maps:   per-key presence arithmetic (a successful insert requires
//              absence, a successful remove requires presence, so
//              init + inserts + creating-puts - removes == final presence),
//              and every value read or left behind was actually written.
//      queues: no value invented, none duplicated, none lost (multiset
//              conservation against the final drain), no dequeue that
//              ended before its value's enqueue began, and FIFO order for
//              enqueue pairs whose intervals don't overlap — if e1 finished
//              before e2 began, v2's dequeue may not finish before v1's
//              begins.
//
// All checkers return ::testing::AssertionResult so failures carry the
// offending operation; use them as EXPECT_TRUE(check_...).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/history.hpp"
#include "harness/oracle.hpp"

namespace medley::test::harness {

inline std::string describe(const OpRecord& r) {
  std::ostringstream os;
  os << "t" << r.thread << " " << to_string(r.kind) << "(" << r.key;
  if (r.kind == OpKind::Insert || r.kind == OpKind::Put) os << ", " << r.val;
  os << ") -> " << (r.ok ? "ok" : "miss");
  if (r.ok && (r.kind == OpKind::Get || r.kind == OpKind::Remove ||
               r.kind == OpKind::Put || r.kind == OpKind::Dequeue)) {
    os << " [" << r.out << "]";
  }
  os << " @[" << r.start << "," << r.end << "]";
  return os.str();
}

namespace detail {

inline bool intervals_sequential(const std::vector<OpRecord>& h,
                                 std::string* err) {
  for (std::size_t i = 1; i < h.size(); i++) {
    if (h[i].start < h[i - 1].end) {
      std::ostringstream os;
      os << "history is not sequential: " << describe(h[i - 1]) << " overlaps "
         << describe(h[i]) << " — use the concurrent invariant checkers";
      *err = os.str();
      return false;
    }
  }
  return true;
}

template <typename Oracle>
::testing::AssertionResult replay(const std::vector<OpRecord>& history,
                                  Oracle oracle) {
  std::string err;
  if (!intervals_sequential(history, &err)) {
    return ::testing::AssertionFailure() << err;
  }
  for (std::size_t i = 0; i < history.size(); i++) {
    const OpRecord& r = history[i];
    const OracleResult want = oracle.apply(r);
    if (r.ok != want.ok) {
      return ::testing::AssertionFailure()
             << "op " << i << ": " << describe(r) << " — oracle says "
             << (want.ok ? "ok" : "miss");
    }
    const bool has_out = r.ok && (r.kind == OpKind::Get ||
                                  r.kind == OpKind::Remove ||
                                  r.kind == OpKind::Put ||
                                  r.kind == OpKind::Dequeue);
    if (has_out && r.out != want.out) {
      return ::testing::AssertionFailure()
             << "op " << i << ": " << describe(r) << " — oracle value "
             << want.out;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace detail

/// Exact replay of a non-overlapping history against the std::map spec.
/// `history` must be ordered by start tick (Recorder::history() is).
inline ::testing::AssertionResult check_sequential_map(
    const std::vector<OpRecord>& history,
    std::map<std::uint64_t, std::uint64_t> initial = {}) {
  return detail::replay(history, MapOracle(std::move(initial)));
}

/// Exact replay of a non-overlapping history against the std::deque spec.
inline ::testing::AssertionResult check_sequential_queue(
    const std::vector<OpRecord>& history,
    std::deque<std::uint64_t> initial = {}) {
  return detail::replay(history, QueueOracle(std::move(initial)));
}

/// Sound invariants for a concurrent map/set history.
/// `initial` is the state before the run; `final_state` the state observed
/// after all workers joined (e.g. rebuilt from keys_slow() + get()).
inline ::testing::AssertionResult check_set_history(
    const std::vector<OpRecord>& history,
    const std::map<std::uint64_t, std::uint64_t>& initial,
    const std::map<std::uint64_t, std::uint64_t>& final_state) {
  struct PerKey {
    long creates = 0;  // successful inserts + puts that found nothing
    long removes = 0;  // successful removes
    // Values stored by insert/put, with the tick at which the writing
    // operation began. A read may only observe a value from a write that
    // had already begun when the read completed.
    std::map<std::uint64_t, std::uint64_t> written;  // value -> min start
  };
  std::map<std::uint64_t, PerKey> keys;
  for (const auto& [k, v] : initial) keys[k].written.emplace(v, 0);

  // Pass 1: tally effects and collect every write.
  for (const OpRecord& r : history) {
    PerKey& pk = keys[r.key];
    switch (r.kind) {
      case OpKind::Insert:
        if (r.ok) {
          pk.creates++;
          auto [it, fresh] = pk.written.emplace(r.val, r.start);
          if (!fresh) it->second = std::min(it->second, r.start);
        }
        break;
      case OpKind::Put: {
        if (!r.ok) pk.creates++;
        auto [it, fresh] = pk.written.emplace(r.val, r.start);
        if (!fresh) it->second = std::min(it->second, r.start);
        break;
      }
      case OpKind::Remove:
        if (r.ok) pk.removes++;
        break;
      case OpKind::Get:
      case OpKind::Contains:
        break;
      default:
        return ::testing::AssertionFailure()
               << "queue operation in a map history: " << describe(r);
    }
  }

  // Pass 2: every observed value must stem from a write that began before
  // the observing operation ended (initial values count as tick 0).
  for (const OpRecord& r : history) {
    const bool observes =
        r.ok && (r.kind == OpKind::Get || r.kind == OpKind::Remove ||
                 r.kind == OpKind::Put);  // put's ok carries the old value
    if (!observes) continue;
    const PerKey& pk = keys[r.key];
    auto it = pk.written.find(r.out);
    if (it == pk.written.end()) {
      return ::testing::AssertionFailure()
             << "observed never-written value: " << describe(r);
    }
    if (it->second > r.end) {
      return ::testing::AssertionFailure()
             << "observed value before it was written (write began at tick "
             << it->second << "): " << describe(r);
    }
  }

  for (const auto& [k, pk] : keys) {
    const long init_present = initial.count(k) ? 1 : 0;
    const long final_present = final_state.count(k) ? 1 : 0;
    if (init_present + pk.creates - pk.removes != final_present) {
      return ::testing::AssertionFailure()
             << "key " << k << ": presence arithmetic broken — initial "
             << init_present << " + creates " << pk.creates << " - removes "
             << pk.removes << " != final " << final_present;
    }
  }
  for (const auto& [k, v] : final_state) {
    auto it = keys.find(k);
    if (it == keys.end()) {
      return ::testing::AssertionFailure()
             << "final state holds key " << k << " that no operation touched";
    }
    if (!it->second.written.count(v)) {
      return ::testing::AssertionFailure()
             << "final value of key " << k << " (" << v
             << ") was never written";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Sound invariants for a concurrent FIFO history. Requires all enqueued
/// values (plus `initial`) to be pairwise distinct so dequeues can be
/// matched to enqueues. `final_drain` is what a post-join drain returned,
/// in order.
inline ::testing::AssertionResult check_queue_history(
    const std::vector<OpRecord>& history,
    const std::vector<std::uint64_t>& initial,
    const std::vector<std::uint64_t>& final_drain) {
  std::map<std::uint64_t, const OpRecord*> enq;  // value -> enqueue record
  std::map<std::uint64_t, const OpRecord*> deq;  // value -> dequeue record
  std::set<std::uint64_t> known(initial.begin(), initial.end());

  // Pass 1: collect every enqueue. A dequeue may start before the enqueue
  // of its value and still be legal when the two overlap, so the dequeues
  // can only be judged once every enqueue is known.
  for (const OpRecord& r : history) {
    switch (r.kind) {
      case OpKind::Enqueue:
        if (!known.insert(r.key).second) {
          return ::testing::AssertionFailure()
                 << "duplicate enqueue value (harness requires unique "
                    "values): "
                 << describe(r);
        }
        enq.emplace(r.key, &r);
        break;
      case OpKind::Dequeue:
        break;
      default:
        return ::testing::AssertionFailure()
               << "map operation in a queue history: " << describe(r);
    }
  }

  // Pass 2: every dequeued value was enqueued (or initial), at most once,
  // and not by an enqueue that began only after the dequeue had ended.
  for (const OpRecord& r : history) {
    if (r.kind != OpKind::Dequeue || !r.ok) continue;
    if (!known.count(r.out)) {
      return ::testing::AssertionFailure()
             << "dequeue invented a value: " << describe(r);
    }
    if (auto e = enq.find(r.out); e != enq.end() && r.end < e->second->start) {
      return ::testing::AssertionFailure()
             << "dequeue ended before its enqueue began: " << describe(r)
             << " vs " << describe(*e->second);
    }
    if (!deq.emplace(r.out, &r).second) {
      return ::testing::AssertionFailure()
             << "value dequeued twice: " << describe(r);
    }
  }

  // Conservation: everything enqueued-but-not-dequeued is in the drain,
  // nothing else is, and nothing is drained twice.
  std::set<std::uint64_t> drained;
  for (std::uint64_t v : final_drain) {
    if (!known.count(v)) {
      return ::testing::AssertionFailure()
             << "drain produced never-enqueued value " << v;
    }
    if (deq.count(v)) {
      return ::testing::AssertionFailure()
             << "value " << v << " dequeued during the run AND drained";
    }
    if (!drained.insert(v).second) {
      return ::testing::AssertionFailure() << "value " << v
                                           << " drained twice";
    }
  }
  if (drained.size() + deq.size() != known.size()) {
    return ::testing::AssertionFailure()
           << "queue lost values: " << known.size() << " enqueued, "
           << deq.size() << " dequeued, " << drained.size() << " drained";
  }

  // FIFO: when one enqueue finished before another began, their dequeues
  // must not be observed in inverted, non-overlapping order. Pair scan is
  // O(E^2) in the worst case but each pair costs only map lookups; the
  // drain position lookup is precomputed (a linear std::find here made the
  // whole pass cubic on large histories).
  std::map<std::uint64_t, std::size_t> drain_pos;
  for (std::size_t i = 0; i < final_drain.size(); i++) {
    drain_pos.emplace(final_drain[i], i);
  }
  std::vector<const OpRecord*> enqs;
  enqs.reserve(enq.size());
  for (const auto& [v, r] : enq) enqs.push_back(r);
  for (const OpRecord* e1 : enqs) {
    for (const OpRecord* e2 : enqs) {
      if (e1->end >= e2->start) continue;  // overlapping or later: no order
      auto d1 = deq.find(e1->key), d2 = deq.find(e2->key);
      if (d1 != deq.end() && d2 != deq.end() &&
          d2->second->end < d1->second->start) {
        return ::testing::AssertionFailure()
               << "FIFO violation: " << describe(*e1) << " preceded "
               << describe(*e2) << " but " << describe(*d2->second)
               << " completed before " << describe(*d1->second) << " began";
      }
      // An undrained e1 whose successor e2 was dequeued is fine (another
      // dequeue may still be in flight conceptually), but if e1 reached the
      // final drain while e2 was dequeued during the run, order still holds
      // (run dequeues precede the drain), so nothing to check.
      if (d1 == deq.end() && d2 == deq.end()) {
        // Both in the drain: drain order must respect enqueue order.
        auto p1 = drain_pos.find(e1->key);
        auto p2 = drain_pos.find(e2->key);
        if (p1 != drain_pos.end() && p2 != drain_pos.end() &&
            p2->second < p1->second) {
          return ::testing::AssertionFailure()
                 << "FIFO violation in drain: " << describe(*e1)
                 << " preceded " << describe(*e2)
                 << " but drained after it";
        }
      }
      if (d1 == deq.end() && d2 != deq.end()) {
        return ::testing::AssertionFailure()
               << "FIFO violation: " << describe(*e1) << " preceded "
               << describe(*e2) << ", e2 was dequeued ("
               << describe(*d2->second)
               << ") but e1 was still in the queue at the end";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace medley::test::harness
