// In-process transaction workloads: the paper's Sec. 6.1 microbenchmark.
// Transactions of 1-10 ops, get:insert:remove = 2:1:1 on keys drawn
// uniformly from 1M, half of them preloaded, run by 3 threads through
// TxExecutor::execute.
//
//   txn-hash     ds::MichaelHashTable under the default (eager) policy —
//                the NBTC core and src/ds do all the work; net, store and
//                combiner are bypassed. Uniform keys share little; the
//                ~50 MB working set is larger than L2, smaller than L3.
//   txn-durable  montage::TxMontageHashTable under ExpBackoffCM, with the
//                main thread calling EpochSys::advance() every 10 ms (the
//                loop start_advancer(10) runs) — the only workload that
//                touches src/montage.
//
// Threads: 3 workers + the main thread (idle, or the epoch advancer) = 4,
// each pinned to its own CPU.

#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "core/medley.hpp"
#include "ds/michael_hashtable.hpp"
#include "montage/txmontage.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace medley::benchrec {

namespace {

constexpr int kWorkers = 3;
constexpr std::uint64_t kTimeEvery = 32;   // latency sample: 1 txn in 32
constexpr std::uint64_t kKeepEvery = 64;   // traced: keep 1 txn's spans in 64

struct Scale {
  std::uint64_t keyspace, preload;
};

struct HashSys {
  TxManager mgr;
  TxExecutor exec;  // default policy: the paper's eager retry
  std::unique_ptr<ds::MichaelHashTable<std::uint64_t, std::uint64_t>> map;

  HashSys(const Scale& sc, const std::string&)
      : map(std::make_unique<
            ds::MichaelHashTable<std::uint64_t, std::uint64_t>>(
            &mgr, sc.keyspace)) {}
  void load(const std::vector<std::uint64_t>& keys) {
    for (std::uint64_t k : keys) map->insert(k, k);
  }
  std::size_t size() { return map->size_slow(); }
};

struct DurableSys {
  TxManager mgr;
  std::string path;
  std::size_t capacity;
  std::unique_ptr<montage::PRegion> region;
  std::unique_ptr<montage::EpochSys> es;
  // Capacity aborts wait on the epoch advancer; backoff yields to it.
  TxExecutor exec{TxPolicy::with(std::make_shared<ExpBackoffCM>())};
  std::unique_ptr<montage::TxMontageHashTable> map;

  DurableSys(const Scale& sc, const std::string& region_path)
      : path(region_path), capacity(sc.keyspace * 2 + (1u << 16)) {
    std::remove(path.c_str());
    region = std::make_unique<montage::PRegion>(path, capacity);
    es = std::make_unique<montage::EpochSys>(region.get());
    es->attach(&mgr);
    map = std::make_unique<montage::TxMontageHashTable>(&mgr, es.get(),
                                                        /*sid=*/1, sc.keyspace);
  }
  ~DurableSys() {
    close();
    std::remove(path.c_str());
  }
  DurableSys(const DurableSys&) = delete;
  DurableSys& operator=(const DurableSys&) = delete;
  void load(const std::vector<std::uint64_t>& keys) {
    for (std::size_t i = 0; i < keys.size(); i += 32) {
      exec.execute(mgr, [&] {
        for (std::size_t j = i; j < std::min(keys.size(), i + 32); j++) {
          map->insert(keys[j], keys[j]);
        }
      });
    }
    es->sync();
  }
  std::size_t size() { return map->size_slow(); }
  /// Drop every DRAM structure; the region file stays for recovery.
  void close() {
    map.reset();
    es.reset();
    region.reset();
  }
};

std::vector<std::uint64_t> preload_keys(const Options& opt, const Scale& sc) {
  util::Xoshiro256 rng(split_seed(opt.seed, 1));
  std::vector<bool> used(sc.keyspace + 1);
  std::vector<std::uint64_t> keys;
  keys.reserve(sc.preload);
  while (keys.size() < sc.preload) {
    const std::uint64_t k = rng.next_bounded(sc.keyspace) + 1;
    if (!used[k]) {
      used[k] = true;
      keys.push_back(k);
    }
  }
  return keys;
}

struct WorkerState {
  LatencySamples lat;
  std::uint64_t committed = 0, failed = 0;
  std::int64_t inserted = 0, removed = 0;
  TxStats traced;  // aborts of traced-phase transactions
  std::uint64_t traced_commits = 0;
  std::uint64_t sink = 0;
};

enum Op : std::uint8_t { kGet, kInsert, kRemove };

template <typename Sys>
void worker(int t, Sys& sys, const Options& opt, const Scale& sc,
            std::atomic<int>& phase, DoneCounter& done, WorkerState& st) {
  pin_to(1 + t);
  util::Xoshiro256 rng(split_seed(opt.seed, 100 + t));
  Tracer& tr = Tracer::get();
  std::uint64_t txid = static_cast<std::uint64_t>(t + 1) << 48;
  std::uint64_t keys[10];
  Op ops[10];
  st.lat.prepare(opt, 100'000);
  int ph;
  while ((ph = phase.load(std::memory_order_acquire)) != kStop) {
    // Draw the transaction up front: a retry re-runs the same operations.
    const std::uint64_t n = 1 + rng.next_bounded(10);
    for (std::uint64_t i = 0; i < n; i++) {
      keys[i] = rng.next_bounded(sc.keyspace) + 1;
      const std::uint64_t x = rng.next_bounded(4);
      ops[i] = x < 2 ? kGet : x == 2 ? kInsert : kRemove;
    }
    txid++;
    const bool tracing = ph == kTraced;
    const bool keep = tracing && txid % kKeepEvery == 0;
    const bool timed = ph == kMeasure && txid % kTimeEvery == 0;
    std::int64_t ins = 0, rem = 0;
    const std::uint64_t t0 = tracing || timed ? now_ns() : 0;
    auto apply = [&](std::uint64_t i) {
      switch (ops[i]) {
        case kGet: st.sink += sys.map->get(keys[i]).value_or(0); break;
        case kInsert: ins += sys.map->insert(keys[i], keys[i]); break;
        case kRemove: rem += sys.map->remove(keys[i]).has_value(); break;
      }
    };
    const auto res = sys.exec.execute(sys.mgr, [&] {
      ins = rem = 0;
      for (std::uint64_t i = 0; i < n; i++) {
        if (!tracing) {
          apply(i);
          continue;
        }
        const std::uint64_t s0 = now_ns();
        apply(i);
        tr.record(ops[i] == kGet      ? kDsGet
                  : ops[i] == kInsert ? kDsInsert
                                      : kDsRemove,
                  s0, now_ns(), txid, kCoreExecute, keep);
      }
    });
    if (tracing || timed) {
      const std::uint64_t t1 = now_ns();
      if (timed) st.lat.add(t1 - t0);
      if (tracing) tr.record(kCoreExecute, t0, t1, txid, kNoParent, keep);
    }
    if (!res.committed()) {
      st.failed++;  // a terminal abort: the policy gave up
      continue;
    }
    st.committed++;
    st.inserted += ins;
    st.removed += rem;
    if (tracing) {
      st.traced += res.stats;
      st.traced_commits++;
    }
    done.bump();
  }
}

/// txn-durable's recovery check: snapshot the live map, close every DRAM
/// structure, reopen the region, recover, and compare. Returns recover_s.
double check_recovery(DurableSys& sys, const Scale& sc, Result& r) {
  sys.es->sync();
  std::map<std::uint64_t, std::uint64_t> live;
  for (std::uint64_t k : sys.map->index().keys_slow()) {
    live[k] = sys.map->get(k).value_or(~0ULL);
  }
  sys.close();
  const auto t0 = Clock::now();
  montage::PRegion region(sys.path, sys.capacity);
  montage::EpochSys es(&region);
  auto recovered = es.recover();
  TxManager mgr;
  es.attach(&mgr);
  montage::TxMontageHashTable map(&mgr, &es, /*sid=*/1, sc.keyspace);
  map.recover_from(recovered);
  const double recover_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::map<std::uint64_t, std::uint64_t> back;
  for (std::uint64_t k : map.index().keys_slow()) {
    back[k] = map.get(k).value_or(~0ULL);
  }
  if (back != live) {
    r.fail("recovered map (" + std::to_string(back.size()) +
           " keys) differs from the live map (" + std::to_string(live.size()) +
           " keys)");
  }
  return recover_s;
}

template <typename Sys>
Result run(const Options& opt) {
  constexpr bool kDurable = std::is_same_v<Sys, DurableSys>;
  Result r;
  const Scale sc = opt.smoke ? Scale{10'000, 5'000} : Scale{1'000'000, 500'000};
  const std::vector<std::uint64_t> preload = preload_keys(opt, sc);
  const std::string region_path = opt.out + "/txn-durable.img";
  pin_to(0);  // set-up and the epoch advancer; workers take CPUs 1-3
  std::unique_ptr<Sys> sys;
  const double setup_s = timed_setups(sys, [&] {
    auto s = std::make_unique<Sys>(sc, region_path);
    s->load(preload);
    return s;
  });
  std::atomic<int> phase{kWarm};
  std::vector<DoneCounter> done(kWorkers);
  std::vector<WorkerState> st(kWorkers);
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; t++) {
    workers.emplace_back([&, t] {
      worker(t, *sys, opt, sc, phase, done[t], st[t]);
    });
  }
  std::vector<double> advance_ms;
  std::uint64_t epoch0 = 0, epoch1 = 0;
  std::function<void()> tick;
  if constexpr (kDurable) {
    tick = [&] {
      const std::uint64_t t0 = now_ns();
      sys->es->advance();
      const int ph = phase.load(std::memory_order_relaxed);
      if (ph == kWarm) epoch0 = sys->es->current_epoch();
      if (ph == kMeasure || ph == kTraced) {
        advance_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        epoch1 = sys->es->current_epoch();
      }
    };
  }
  const Timeline tl =
      drive(opt, phase, [&] { return total(done); }, 10.0, tick);
  for (auto& th : workers) th.join();

  r.notes.push_back(tl.describe());

  // ---- correctness -------------------------------------------------------
  std::int64_t inserted = 0, removed = 0;
  TxStats traced;
  std::uint64_t traced_commits = 0;
  for (const WorkerState& s : st) {
    r.attempted += s.committed + s.failed;
    r.failed += s.failed;
    inserted += s.inserted;
    removed += s.removed;
    traced += s.traced;
    traced_commits += s.traced_commits;
  }
  if (r.failed) r.fail(std::to_string(r.failed) + " terminal aborts");
  const std::int64_t want =
      static_cast<std::int64_t>(preload.size()) + inserted - removed;
  const auto have = static_cast<std::int64_t>(sys->size());
  if (have != want) {
    r.fail("final size " + std::to_string(have) + " != preload + inserts - "
           "removes = " + std::to_string(want));
  }
  double recover_s = 0;
  if constexpr (kDurable) {
    recover_s = check_recovery(*sys, sc, r);
  }

  // ---- metrics -----------------------------------------------------------
  if (!opt.trace) {
    r.add("throughput", median(tl.plain), "1/s");
    std::vector<LatencySamples> lat;
    for (auto& s : st) lat.push_back(std::move(s.lat));
    add_latency(r, lat);
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }
  const Tracer& tr = Tracer::get();
  auto p = [&](SpanKind k, double q) {
    auto d = tr.durations(k);
    return quantile(d, q);
  };
  const double execs = static_cast<double>(tr.count(kCoreExecute));
  const double ds_ns = static_cast<double>(tr.sum_ns(kDsGet) +
                                           tr.sum_ns(kDsInsert) +
                                           tr.sum_ns(kDsRemove));
  const double per_txn =
      traced_commits ? 1.0 / static_cast<double>(traced_commits) : 0;
  r.add("core.execute_ns_p50", p(kCoreExecute, 0.5), "ns");
  r.add("core.execute_ns_p99", p(kCoreExecute, 0.99), "ns");
  r.add("core.self_ns_per_txn",
        execs > 0
            ? (static_cast<double>(tr.sum_ns(kCoreExecute)) - ds_ns) / execs
            : 0,
        "ns");
  r.add("core.aborts_per_txn.conflict",
        static_cast<double>(traced.conflict_aborts) * per_txn, "ratio");
  r.add("core.aborts_per_txn.validation",
        static_cast<double>(traced.validation_aborts) * per_txn, "ratio");
  r.add("core.aborts_per_txn.capacity",
        static_cast<double>(traced.capacity_aborts) * per_txn, "ratio");
  r.add("ds.get_ns_p50", p(kDsGet, 0.5), "ns");
  r.add("ds.insert_ns_p50", p(kDsInsert, 0.5), "ns");
  r.add("ds.remove_ns_p50", p(kDsRemove, 0.5), "ns");
  if constexpr (kDurable) {
    r.add("montage.advance_ms_p50", quantile(advance_ms, 0.5), "ms");
    r.add("montage.advance_ms_p99", quantile(advance_ms, 0.99), "ms");
    r.add("montage.advances_per_s",
          static_cast<double>(epoch1 - epoch0) / tl.measured_s, "1/s");
    r.add("montage.recover_s", recover_s, "s");
  }
  r.add("trace.overhead_frac", 1.0 - median(tl.traced) / median(tl.plain),
        "ratio");
  return r;
}

}  // namespace

Result run_txn(const Options& opt, bool durable) {
  return durable ? run<DurableSys>(opt) : run<HashSys>(opt);
}

}  // namespace medley::benchrec
