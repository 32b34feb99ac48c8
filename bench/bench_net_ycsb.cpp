// End-to-end serving benchmark for the network subsystem (src/net):
// YCSB-style mixes driven over real TCP connections against the epoll
// server, measuring what the wave path buys.
//
// Two drivers, two JSON artifacts:
//
//  1. Closed loop (BENCH_net_ycsb.json): C connections each run a mix
//     either one-request-per-round-trip ("sync") or in pipelined batches
//     of 16 ("pipelined"). Pipelining pays one syscall each way per batch
//     and commits each run of PUTs in the batch with one apply_batch; the
//     single-connection sync rows are the honest overhead floor (the wire
//     costs two syscalls per op). There is no combining axis: the wire's
//     PUT/DEL never reach the store's combiner, and mixes A and C have no
//     RMW, so StoreConfig::combining would measure the same path twice.
//
//  2. Open loop (BENCH_net_tail.json): Poisson arrivals at fixed offered
//     loads, one pacing sender + one receiver sharing ONE time origin,
//     latency measured from the SCHEDULED arrival (queueing delay
//     included — the honest open-loop accounting), reported as p50, p99
//     and the highest percentile that still has >= 10 samples beyond it
//     (with its sample counts), plus how late the generator itself ran
//     (actual send time minus scheduled time).
//
// This is a standalone driver (no google-benchmark macros): the unit of
// measurement is a whole client/server episode, not a function call.
//
// Scale: MEDLEY_NET_SMOKE=1 trims op counts for CI; the full scale is the
// default. MEDLEY_METRICS_OUT=<path> additionally scrapes the server's
// METRICS verb over the wire at the end and writes the Prometheus text
// there (tools/check_metrics.py validates it in CI). Client threads
// time-share the host's hardware threads with the server (the JSON notes
// record how many there were); the relative ordering (pipelined vs sync
// at equal connections) is the result. The benchmark of record is
// medley_bench/ (python3 medley_bench/run.py); this driver is the wider
// grid around it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "store/store.hpp"
#include "util/rng.hpp"

using medley::TxManager;
using medley::store::MedleyStore;
using medley::store::StoreConfig;
namespace net = medley::net;
using Clock = std::chrono::steady_clock;
using Store = MedleyStore<std::uint64_t, std::uint64_t>;

namespace {

bool smoke() {
  const char* s = std::getenv("MEDLEY_NET_SMOKE");
  return s != nullptr && s[0] == '1';
}

constexpr std::uint64_t kKeyspace = 16384;
constexpr std::size_t kPipelineBatch = 16;

struct Mix {
  const char* name;
  int read_pct;  // reads per 100 ops; the rest are updates (PUT)
};
const Mix kMixes[] = {{"A", 50}, {"C", 100}};

/// One server episode: fresh store (preloaded), fresh server.
struct Episode {
  TxManager mgr;
  std::unique_ptr<Store> store;
  std::unique_ptr<net::StoreAdapter<Store>> adapter;
  std::unique_ptr<net::Server> server;
  std::shared_ptr<medley::obs::MetricsRegistry> registry;

  explicit Episode(bool metrics = false) {
    StoreConfig cfg;
    cfg.buckets = 1u << 12;
    if (metrics) {
      cfg.metrics = true;
      registry = std::make_shared<medley::obs::MetricsRegistry>();
      cfg.metrics_registry = registry;
    }
    store = std::make_unique<Store>(&mgr, cfg);
    // Eager preload: no group commits, so the rows' combined counters are
    // the measured traffic's alone.
    for (std::uint64_t k = 0; k < kKeyspace; k += 2) store->put(k, k);
    net::NetConfig ncfg;
    ncfg.workers = 1;
    ncfg.registry = registry;
    server = std::make_unique<net::Server>(adapter_init(), ncfg);
    server->start();
  }
  net::StoreApi* adapter_init() {
    adapter = std::make_unique<net::StoreAdapter<Store>>(store.get());
    return adapter.get();
  }
  ~Episode() { server->stop(); }
};

// ---- closed loop -----------------------------------------------------------

struct ClosedRow {
  const char* mix;
  const char* mode;
  int connections;
  std::uint64_t ops;
  double seconds;
  double ops_per_sec;
  std::uint64_t combined_ops;
  std::uint64_t combined_batches;
};

ClosedRow run_closed(const Mix& mix, bool pipelined, int connections,
                     std::uint64_t total_ops) {
  Episode ep;
  const std::uint64_t per_conn = total_ops / connections;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < connections; t++) {
    threads.emplace_back([&, t] {
      net::Client c("127.0.0.1", ep.server->port());
      medley::util::Xoshiro256 rng(0xC0FFEE ^ (t * 7919));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (pipelined) {
        std::vector<net::Request> batch;
        for (std::uint64_t done = 0; done < per_conn;
             done += kPipelineBatch) {
          batch.clear();
          for (std::size_t i = 0; i < kPipelineBatch; i++) {
            const std::uint64_t k = rng.next_bounded(kKeyspace);
            if (rng.next_bounded(100) <
                static_cast<std::uint64_t>(mix.read_pct)) {
              batch.push_back(c.make(net::Verb::kGet, k));
            } else {
              batch.push_back(c.make(net::Verb::kPut, k, rng.next()));
            }
          }
          c.send_batch(batch);
        }
      } else {
        for (std::uint64_t i = 0; i < per_conn; i++) {
          const std::uint64_t k = rng.next_bounded(kKeyspace);
          if (rng.next_bounded(100) <
              static_cast<std::uint64_t>(mix.read_pct)) {
            c.get(k);
          } else {
            c.put(k, rng.next());
          }
        }
      }
    });
  }
  while (ready.load() < connections) std::this_thread::yield();
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t ops = per_conn * connections;
  return ClosedRow{mix.name,
                   pipelined ? "pipelined" : "sync",
                   connections,
                   ops,
                   secs,
                   static_cast<double>(ops) / secs,
                   ep.store->combined_ops(),
                   ep.store->combined_batches()};
}

// ---- open loop -------------------------------------------------------------

struct TailRow {
  const char* mix;
  double offered_rps;
  double achieved_rps;
  std::uint64_t sent;
  std::size_t samples;
  double p50_us, p99_us;
  double tail_pct, tail_us;  // see tail_of
  std::size_t tail_beyond;
  double lag_p50_us, lag_p99_us, lag_max_us;  // generator: sent - scheduled
};

std::size_t pct_index(std::size_t n, double q) {
  return std::min(n - 1, static_cast<std::size_t>(q * n));
}

double pct(const std::vector<double>& sorted, double q) {
  return sorted.empty() ? 0 : sorted[pct_index(sorted.size(), q)];
}

/// The highest percentile of p50, p90, p99, p99.9, p99.99 that still has
/// at least 10 samples beyond it: a quantile backed by fewer is an
/// outlier's value, not a percentile. Returns {pct, value, beyond}.
struct Tail {
  double pct = 0;
  double us = 0;
  std::size_t beyond = 0;
};
Tail tail_of(const std::vector<double>& sorted) {
  Tail t;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (sorted.empty()) break;
    const std::size_t i = pct_index(sorted.size(), q);
    const std::size_t beyond = sorted.size() - 1 - i;
    if (beyond < 10) break;
    t = Tail{q * 100, sorted[i], beyond};
  }
  return t;
}

/// Poisson arrivals at `rps` for `seconds`: the sender writes each
/// request at its scheduled instant (one write each — open loop, no
/// batching by the driver; waves still form when the server falls
/// behind). A receiver thread stamps completions; latency = completion -
/// SCHEDULED arrival, with sender and receiver measuring from the same
/// t0.
TailRow run_tail(const Mix& mix, double rps, double seconds) {
  Episode ep;
  net::Client c("127.0.0.1", ep.server->port());

  // Pre-generate the arrival schedule (exponential gaps).
  medley::util::Xoshiro256 rng(0xAB5EED);
  std::vector<double> sched;  // seconds from t0
  double t = 0;
  while (t < seconds) {
    sched.push_back(t);
    const double u =
        (static_cast<double>(rng.next() >> 11) + 1) / 9007199254740993.0;
    t += -std::log(u) / rps;
  }
  const std::size_t n = sched.size();
  auto since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  std::vector<double> done_at(n, -1);
  std::vector<double> sent_at(n, -1);
  const auto t0 = Clock::now();
  std::thread receiver([&] {
    // Responses arrive in request order on the single connection.
    net::FrameBuffer fb;
    std::size_t got = 0;
    std::uint8_t buf[16384];
    while (got < n) {
      const ssize_t r = ::read(c.fd(), buf, sizeof(buf));
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        break;
      }
      fb.append(buf, static_cast<std::size_t>(r));
      bool oversize = false;
      while (auto f = fb.next(net::kDefaultMaxFrame, &oversize)) {
        done_at[got++] = since(t0);
      }
      if (fb.buffered() == 0) fb.compact();
    }
  });

  std::vector<std::uint8_t> frame;
  for (std::size_t i = 0; i < n; i++) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(sched[i]));
    std::this_thread::sleep_until(due);
    frame.clear();
    net::Request rq;
    rq.id = static_cast<std::uint32_t>(i);
    const std::uint64_t k = rng.next_bounded(kKeyspace);
    if (rng.next_bounded(100) < static_cast<std::uint64_t>(mix.read_pct)) {
      rq.verb = net::Verb::kGet;
      rq.a = k;
    } else {
      rq.verb = net::Verb::kPut;
      rq.a = k;
      rq.b = i;
    }
    net::encode_request(frame, rq);
    sent_at[i] = since(t0);
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t w = ::write(c.fd(), frame.data() + off,
                                frame.size() - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        break;
      }
      off += static_cast<std::size_t>(w);
    }
  }
  receiver.join();
  const double wall = since(t0);

  std::vector<double> lat;
  std::vector<double> lag;
  lat.reserve(n);
  lag.reserve(n);
  for (std::size_t i = 0; i < n; i++) {
    if (done_at[i] >= 0) lat.push_back((done_at[i] - sched[i]) * 1e6);
    lag.push_back((sent_at[i] - sched[i]) * 1e6);
  }
  std::sort(lat.begin(), lat.end());
  std::sort(lag.begin(), lag.end());
  const Tail tail = tail_of(lat);
  return TailRow{mix.name,
                 rps,
                 static_cast<double>(lat.size()) / wall,
                 n,
                 lat.size(),
                 pct(lat, 0.50),
                 pct(lat, 0.99),
                 tail.pct,
                 tail.us,
                 tail.beyond,
                 pct(lag, 0.50),
                 pct(lag, 0.99),
                 lag.empty() ? 0 : lag.back()};
}

// ---- output ----------------------------------------------------------------

void write_closed(const std::vector<ClosedRow>& rows) {
  std::ofstream out("BENCH_net_ycsb.json");
  out << "{\n  \"bench\": \"net_ycsb_closed_loop\",\n"
      << "  \"note\": \"C connections over TCP vs one epoll worker, "
      << std::thread::hardware_concurrency()
      << " hardware threads; pipelined = batches of " << kPipelineBatch
      << " via send_batch (one writev per batch), each run of PUTs in a "
         "wave committed with one apply_batch\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); i++) {
    const ClosedRow& r = rows[i];
    out << "    {\"mix\": \"" << r.mix << "\", \"mode\": \"" << r.mode
        << "\", \"connections\": " << r.connections << ", \"ops\": " << r.ops
        << ", \"seconds\": " << r.seconds
        << ", \"ops_per_sec\": " << r.ops_per_sec
        << ", \"combined_ops\": " << r.combined_ops
        << ", \"combined_batches\": " << r.combined_batches << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void write_tail(const std::vector<TailRow>& rows) {
  std::ofstream out("BENCH_net_tail.json");
  out << "{\n  \"bench\": \"net_open_loop_tail\",\n"
      << "  \"note\": \"Poisson arrivals, one connection, "
      << std::thread::hardware_concurrency()
      << " hardware threads; latency from scheduled arrival (queueing "
         "included), microseconds; tail = highest of p50..p99.99 with >= 10 "
         "samples beyond it; lag = generator send time minus scheduled "
         "time\",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); i++) {
    const TailRow& r = rows[i];
    out << "    {\"mix\": \"" << r.mix
        << "\", \"offered_rps\": " << r.offered_rps
        << ", \"achieved_rps\": " << r.achieved_rps
        << ", \"requests\": " << r.sent << ", \"samples\": " << r.samples
        << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
        << ", \"tail_pct\": " << r.tail_pct << ", \"tail_us\": " << r.tail_us
        << ", \"tail_beyond\": " << r.tail_beyond
        << ", \"lag_p50_us\": " << r.lag_p50_us
        << ", \"lag_p99_us\": " << r.lag_p99_us
        << ", \"lag_max_us\": " << r.lag_max_us << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void maybe_dump_metrics() {
  const char* path = std::getenv("MEDLEY_METRICS_OUT");
  if (path == nullptr) return;
  // A short metrics-on episode: real traffic, then one METRICS scrape
  // THROUGH THE WIRE, dumped for tools/check_metrics.py.
  Episode ep(/*metrics=*/true);
  net::Client c("127.0.0.1", ep.server->port());
  std::vector<net::Request> batch;
  for (std::uint64_t k = 0; k < 32; k++) {
    batch.push_back(c.make(net::Verb::kPut, k, k));
  }
  c.send_batch(batch);
  for (std::uint64_t k = 0; k < 32; k += 3) c.get(k);
  c.del(1);
  c.rmw_add(2, 5);
  const std::string text = c.metrics();
  std::ofstream(path) << text;
  std::printf("METRICS scrape (%zu bytes) -> %s\n", text.size(), path);
}

}  // namespace

int main() {
  const bool sm = smoke();
  const std::uint64_t closed_ops = sm ? 2'000 : 24'000;
  const double tail_secs = sm ? 0.5 : 3.0;
  const std::vector<double> loads = sm ? std::vector<double>{500, 1500}
                                       : std::vector<double>{2000, 6000};

  std::vector<ClosedRow> closed;
  for (const Mix& mix : kMixes) {
    for (int conns : {1, 2, 4}) {
      for (bool pipelined : {false, true}) {
        ClosedRow r = run_closed(mix, pipelined, conns, closed_ops);
        std::printf(
            "closed mix:%s %9s conns:%d  %8.0f ops/s  "
            "(%llu combined in %llu batches)\n",
            r.mix, r.mode, r.connections, r.ops_per_sec,
            static_cast<unsigned long long>(r.combined_ops),
            static_cast<unsigned long long>(r.combined_batches));
        closed.push_back(r);
      }
    }
  }
  write_closed(closed);

  std::vector<TailRow> tail;
  for (double rps : loads) {
    TailRow r = run_tail(kMixes[0], rps, tail_secs);  // A: write-bearing
    std::printf(
        "tail   mix:%s offered:%6.0f/s achieved:%6.0f/s  p50:%7.1fus "
        "p99:%8.1fus p%g:%8.1fus (%zu of %zu beyond)  "
        "lag p50:%.1fus p99:%.1fus max:%.1fus\n",
        r.mix, r.offered_rps, r.achieved_rps, r.p50_us, r.p99_us,
        r.tail_pct, r.tail_us, r.tail_beyond, r.samples, r.lag_p50_us,
        r.lag_p99_us, r.lag_max_us);
    tail.push_back(r);
  }
  write_tail(tail);

  maybe_dump_metrics();
  std::printf("wrote BENCH_net_ycsb.json, BENCH_net_tail.json\n");
  return 0;
}
