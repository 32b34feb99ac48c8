#pragma once
// Shared helpers for the test suite.

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "core/medley.hpp"
#include "harness/harness.hpp"

namespace medley::test {

/// Exposes Composable's protected services so core-level tests can drive
/// the NBTC machinery without a full data structure.
struct Harness : core::Composable {
  explicit Harness(core::TxManager* m) : Composable(m) {}
  using Composable::addToCleanups;
  using Composable::addToReadSet;
  using Composable::addToReadSetDedup;
  using Composable::seedReadSetDedup;
  using Composable::tDelete;
  using Composable::tNew;
  using Composable::tRetire;
};

/// Run `fn(thread_index)` on `n` threads and join.
inline void run_threads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> ts;
  ts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; i++) ts.emplace_back(fn, i);
  for (auto& t : ts) t.join();
}

/// A store's one-record invariant, checked quiescently: every live
/// secondary node is the node the primary maps its key to, and the key
/// counts are equal — so every primary entry names the live node of its
/// own key, and each value is held in exactly one place.
template <typename Store>
::testing::AssertionResult primary_maps_live_nodes(Store& store) {
  const auto nodes = store.secondary().handles_slow();
  for (const auto& [k, node] : nodes) {
    const auto h = store.primary().get(k);
    if (!h) {
      return ::testing::AssertionFailure()
             << "key " << k << " in the secondary but not the primary";
    }
    if (*h != node) {
      return ::testing::AssertionFailure()
             << "key " << k << ": the primary's handle is not the live node";
    }
  }
  const std::size_t psize = store.primary().size_slow();
  if (psize != nodes.size()) {
    return ::testing::AssertionFailure()
           << "primary holds " << psize << " keys, secondary "
           << nodes.size();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace medley::test
