// CASObj<T>: encoding, plain descriptor-aware accessors, counter discipline,
// and non-transactional behaviour of the nbtc* instrumented methods.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/medley.hpp"
#include "test_support.hpp"

using medley::CASObj;
using medley::TxManager;

TEST(CasObjEncoding, PointerRoundTrip) {
  int x = 7;
  auto raw = CASObj<int*>::encode(&x);
  EXPECT_EQ(CASObj<int*>::decode(raw), &x);
  EXPECT_EQ(CASObj<int*>::decode(CASObj<int*>::encode(nullptr)), nullptr);
}

TEST(CasObjEncoding, IntegralRoundTrip) {
  EXPECT_EQ(CASObj<std::uint64_t>::decode(
                CASObj<std::uint64_t>::encode(0xabcdef0123456789ULL)),
            0xabcdef0123456789ULL);
  EXPECT_EQ(CASObj<std::int64_t>::decode(CASObj<std::int64_t>::encode(-5)),
            -5);
  EXPECT_EQ(CASObj<std::uint32_t>::decode(CASObj<std::uint32_t>::encode(42u)),
            42u);
}

TEST(CasObj, InitialValueAndCounterZero) {
  CASObj<std::uint64_t> o(123);
  EXPECT_EQ(o.load(), 123u);
  auto r = o.raw();
  EXPECT_EQ(r.hi, 0u);  // even counter: real value
}

TEST(CasObj, StoreBumpsCounterByTwo) {
  CASObj<std::uint64_t> o(1);
  o.store(2);
  o.store(3);
  auto r = o.raw();
  EXPECT_EQ(o.load(), 3u);
  EXPECT_EQ(r.hi, 4u);
  EXPECT_EQ(r.hi % 2, 0u);
}

TEST(CasObj, PlainCasSemantics) {
  CASObj<std::uint64_t> o(10);
  EXPECT_FALSE(o.CAS(11, 20));  // wrong expected
  EXPECT_EQ(o.load(), 10u);
  EXPECT_TRUE(o.CAS(10, 20));
  EXPECT_EQ(o.load(), 20u);
  auto r = o.raw();
  EXPECT_EQ(r.hi, 2u);
}

TEST(CasObj, NbtcOpsOutsideTxBehavePlain) {
  TxManager mgr;
  CASObj<std::uint64_t> o(5);
  EXPECT_EQ(o.nbtcLoad(), 5u);                    // no ctx: plain load
  EXPECT_TRUE(o.nbtcCAS(5, 6, true, true));       // no ctx: plain CAS
  EXPECT_FALSE(o.nbtcCAS(5, 7, true, true));
  EXPECT_EQ(o.load(), 6u);
  auto r = o.raw();
  EXPECT_EQ(r.hi % 2, 0u);  // never left a descriptor behind
}

TEST(CasObj, CounterMonotoneUnderContention) {
  CASObj<std::uint64_t> o(0);
  medley::test::run_threads(4, [&](int) {
    for (int i = 0; i < 5000; i++) {
      auto v = o.load();
      o.CAS(v, v + 1);
    }
  });
  auto r = o.raw();
  EXPECT_EQ(r.hi % 2, 0u);           // counter parity preserved
  EXPECT_EQ(r.hi / 2, o.load());     // exactly one bump per successful CAS
  EXPECT_GT(o.load(), 0u);
}

TEST(CasObj, CasRetriesThroughCounterOnlyChange) {
  // The peer only bumps the counter (CAS(0,0) succeeds and rewrites the
  // same value), so the value is 0 at every instant: a failed 128-bit CAS
  // caused by a counter-only change must be retried internally, and plain
  // CAS(0,0) may never return false. Unlike a re-check of the value after
  // the fact, this has no race to tolerate.
  constexpr std::uint64_t kPerThread = 200000;
  CASObj<std::uint64_t> o(0);
  std::atomic<int> started{0};
  std::atomic<int> false_fails{0};
  medley::test::run_threads(2, [&](int) {
    started.fetch_add(1);
    while (started.load() < 2) {
    }  // overlap the two loops, or nothing contends
    for (std::uint64_t i = 0; i < kPerThread; i++) {
      if (!o.CAS(0, 0)) false_fails.fetch_add(1);
    }
  });
  EXPECT_EQ(false_fails.load(), 0);
  EXPECT_EQ(o.load(), 0u);
  EXPECT_EQ(o.raw().hi, 2 * 2 * kPerThread) << "every CAS bumped the counter";
}

TEST(CasObj, RawExposesValueCounterPair) {
  CASObj<std::uint64_t> o(9);
  auto r = o.raw();
  EXPECT_EQ(r.lo, 9u);
  o.store(10);
  auto r2 = o.raw();
  EXPECT_EQ(r2.lo, 10u);
  EXPECT_GT(r2.hi, r.hi);
}
