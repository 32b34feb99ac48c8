// Wire workloads: closed-loop clients over loopback TCP against the served
// store (served.hpp), with a feed tap draining the change feed into a
// replica every 2 ms on the main thread.
//
//   wire-write  2 connections, each sending send_batch of 16 requests,
//               50% PUT / 50% GET, zipf 0.99 over the preloaded keys: the
//               wave path (decode -> async_put -> combiner batch -> one
//               commit CAS -> one writev).
//   wire-read   2 connections, one blocking request per round trip,
//               90% GET / 5% SCAN(limit 1-64) / 5% PUT: syscall, codec and
//               read-path cost; combiner batches stay at size 1, so a
//               batching change should not move it.
//
// Threads: 2 clients + 1 epoll worker + the main thread (tap) = 4, each
// pinned to its own CPU (pin_to in common.hpp says why).

#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "served.hpp"
#include "util/rng.hpp"

namespace medley::benchrec {

namespace {

constexpr int kConns = 2;
constexpr std::size_t kBatch = 16;
constexpr double kZipfTheta = 0.99;
/// Keep the spans of one client root in this many (traced phase only).
constexpr std::uint64_t kKeepEvery = 4;

struct ClientState {
  LatencySamples lat;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  void fail(const std::string& why) {
    if (failed++ == 0) first_error = why;
  }
};

/// Checks one response against its request. Every key is preloaded and
/// nothing deletes, so a GET/PUT always finds a tagged value and a SCAN
/// from lo returns the consecutive keys lo, lo+1, ... up to its limit.
void check(const net::Request& rq, const net::Response& rs, Key keys,
           ClientState& st) {
  if (rs.id != rq.id || rs.verb != rq.verb) {
    st.fail("response out of request order (id " + std::to_string(rs.id) +
            ", expected " + std::to_string(rq.id) + ")");
    return;
  }
  if (rs.status != net::Status::kOk) {
    st.fail(std::string("status ") + net::status_name(rs.status) + " for " +
            net::verb_name(rq.verb));
    return;
  }
  if (rq.verb == net::Verb::kScan) {
    const std::uint64_t want =
        std::min<std::uint64_t>(rq.limit, keys - std::min(keys, rq.a));
    bool ok = rs.pairs.size() == want;
    for (std::size_t i = 0; ok && i < rs.pairs.size(); i++) {
      ok = rs.pairs[i].first == rq.a + i &&
           tag_ok(rs.pairs[i].first, rs.pairs[i].second);
    }
    if (!ok) st.fail("scan from " + std::to_string(rq.a) + " wrong");
    return;
  }
  if (!rs.val || !tag_ok(rq.a, *rs.val)) {
    st.fail(std::string(net::verb_name(rq.verb)) + " of key " +
            std::to_string(rq.a) + " returned another key's value");
  }
}

void client_loop(int t, bool write_mix, const Options& opt, Key keys,
                 std::uint16_t port, std::atomic<int>& phase,
                 DoneCounter& done, ClientState& st) {
  pin_to(1 + t);
  util::Xoshiro256 rng(split_seed(opt.seed, 10 + t));
  util::ZipfGenerator zipf(keys, kZipfTheta, split_seed(opt.seed, 20 + t));
  std::uint64_t seq = 0;
  std::uint64_t roots = 0;
  st.lat.prepare(opt, 150'000);
  try {
    net::Client c("127.0.0.1", port);
    std::vector<net::Request> reqs;
    int ph;
    while ((ph = phase.load(std::memory_order_acquire)) != kStop) {
      reqs.clear();
      SpanKind kind = kWireBatch;
      if (write_mix) {
        for (std::size_t i = 0; i < kBatch; i++) {
          const Key k = zipf.next();
          reqs.push_back(rng.next_bounded(2) == 0
                             ? c.make(net::Verb::kGet, k)
                             : c.make(net::Verb::kPut, k, tag(k, ++seq)));
        }
      } else {
        const Key k = zipf.next();
        const std::uint64_t x = rng.next_bounded(100);
        if (x < 90) {
          reqs.push_back(c.make(net::Verb::kGet, k));
          kind = kWireGet;
        } else if (x < 95) {
          net::Request rq = c.make(net::Verb::kScan, k);
          rq.limit = static_cast<std::uint32_t>(1 + rng.next_bounded(64));
          reqs.push_back(rq);
          kind = kWireScan;
        } else {
          reqs.push_back(c.make(net::Verb::kPut, k, tag(k, ++seq)));
          kind = kWirePut;
        }
      }
      const std::uint64_t t0 = now_ns();
      const std::vector<net::Response> rs = c.send_batch(reqs);
      const std::uint64_t t1 = now_ns();
      st.sent += reqs.size();
      for (std::size_t i = 0; i < reqs.size(); i++) {
        check(reqs[i], rs[i], keys, st);
      }
      if (ph == kMeasure) st.lat.add(t1 - t0);
      if (ph == kTraced) {
        Tracer::get().record(kind, t0, t1, reqs[0].id, kNoParent,
                             ++roots % kKeepEvery == 0);
      }
      done.bump(reqs.size());
    }
  } catch (const std::exception& e) {
    st.fail(std::string("client exception: ") + e.what());
  }
}

/// Sum and count of one Prometheus summary series in a METRICS scrape.
double summary_mean(const std::string& text, const std::string& name) {
  auto value_of = [&](const std::string& series) -> double {
    const std::string key = "\n" + series + " ";
    const std::size_t at = text.find(key);
    return at == std::string::npos
               ? 0
               : std::strtod(text.c_str() + at + key.size(), nullptr);
  };
  const double n = value_of(name + "_count");
  return n > 0 ? value_of(name + "_sum") / n : 0;
}

}  // namespace

Result run_wire(const Options& opt, bool write_mix) {
  Result r;
  const Key keys = opt.smoke ? 10'000 : 100'000;
  std::atomic<int> phase{kWarm};
  std::unique_ptr<Served> sv;
  pin_to(0);  // the server's epoll worker inherits CPU 0
  const double setup_s = timed_setups(sv, [&] {
    return std::make_unique<Served>(keys, /*combining=*/true, &phase);
  });
  pin_to(3);  // the tap; clients take CPUs 1 and 2

  std::vector<DoneCounter> done(kConns);
  std::vector<ClientState> st(kConns);
  std::vector<std::thread> clients;
  const std::uint16_t port = sv->server.port();
  for (int t = 0; t < kConns; t++) {
    clients.emplace_back(client_loop, t, write_mix, std::cref(opt), keys,
                         port, std::ref(phase), std::ref(done[t]),
                         std::ref(st[t]));
  }

  // Counters at the traced phase's boundaries, read by the tap.
  struct Snap {
    std::uint64_t t_ns = 0, commits = 0, aborts = 0, retries = 0;
    std::uint64_t comb_ops = 0, comb_batches = 0;
  };
  auto snap = [&] {
    const auto s = sv->store.stats();
    return Snap{now_ns(), s.commits, s.aborts(), s.retries,
                sv->store.combined_ops(), sv->store.combined_batches()};
  };
  Snap traced_from;
  std::uint64_t feed_depth_max = 0;
  int seen_phase = kWarm;
  const Timeline tl = drive(
      opt, phase, [&] { return total(done); }, 2.0, [&] {
        const int ph = phase.load(std::memory_order_relaxed);
        if (ph == kTraced && seen_phase != kTraced) traced_from = snap();
        seen_phase = ph;
        feed_depth_max = std::max(feed_depth_max, sv->drain_feed());
      });
  for (auto& th : clients) th.join();
  const Snap traced_to = snap();

  std::string scrape;
  std::uint64_t admin_requests = 0;
  if (opt.trace) {
    try {
      net::Client c("127.0.0.1", port);
      scrape = c.metrics();
      admin_requests++;
    } catch (const std::exception& e) {
      r.fail(std::string("METRICS scrape failed: ") + e.what());
    }
  }

  r.notes.push_back(tl.describe());

  // ---- correctness -------------------------------------------------------
  sv->server.stop();
  std::uint64_t sent = 0;
  for (const ClientState& s : st) {
    sent += s.sent;
    r.attempted += s.sent;
    r.failed += s.failed;
    if (s.failed) r.fail(s.first_error);
  }
  if (sv->server.requests() != sent + admin_requests) {
    r.fail("server served " + std::to_string(sv->server.requests()) +
           " requests, clients sent " + std::to_string(sent + admin_requests));
  }
  sv->drain_feed();
  // Read the store back in pages: a whole-store range() on a 2-shard store
  // of this size Capacity-aborts and retries without end.
  std::uint64_t seen = 0;
  Key lo = 0;
  for (;;) {
    const auto page = sv->store.scan(lo, 256);
    if (page.empty()) break;
    for (const auto& [k, v] : page) {
      const auto it = sv->replica.find(k);
      if (it == sv->replica.end() || it->second != v || !tag_ok(k, v)) {
        r.fail("store and feed replica disagree at key " + std::to_string(k));
        break;
      }
      seen++;
    }
    lo = page.back().first + 1;
  }
  if (seen != sv->replica.size() || seen != keys) {
    r.fail("store holds " + std::to_string(seen) + " keys, replica " +
           std::to_string(sv->replica.size()) + ", expected " +
           std::to_string(keys));
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
  const std::uint64_t client_ns = tr.sum_ns(kWireBatch) + tr.sum_ns(kWireGet) +
                                  tr.sum_ns(kWirePut) + tr.sum_ns(kWireScan);
  const std::uint64_t requests =
      tr.count(kWireBatch) * kBatch + tr.count(kWireGet) +
      tr.count(kWirePut) + tr.count(kWireScan);
  std::uint64_t store_ns = 0;
  for (SpanKind k : {kStoreGet, kStoreScan, kStorePublish, kStoreHarvest,
                     kStoreRmw}) {
    store_ns += tr.sum_ns(k);
  }
  const double traced_wall_ns =
      static_cast<double>(traced_to.t_ns - traced_from.t_ns);
  const double commits =
      static_cast<double>(traced_to.commits - traced_from.commits);
  r.add("net.self_us_per_req",
        requests ? (static_cast<double>(client_ns) -
                    static_cast<double>(store_ns)) /
                       static_cast<double>(requests) / 1e3
                 : 0,
        "us");
  r.add("net.frames_per_wave",
        summary_mean(scrape, "medley_net_batch_size"), "count");
  r.add("net.worker_store_frac",
        traced_wall_ns > 0 ? static_cast<double>(store_ns) / traced_wall_ns
                           : 0,
        "ratio");
  r.add("store.get_ns_p50", p(kStoreGet, 0.5), "ns");
  r.add("store.get_ns_p99", p(kStoreGet, 0.99), "ns");
  r.add("store.scan_ns_p50", p(kStoreScan, 0.5), "ns");
  r.add("store.scan_ns_p99", p(kStoreScan, 0.99), "ns");
  r.add("store.publish_ns_p50", p(kStorePublish, 0.5), "ns");
  r.add("store.harvest_ns_p50", p(kStoreHarvest, 0.5), "ns");
  r.add("store.harvest_ns_p99", p(kStoreHarvest, 0.99), "ns");
  r.add("store.aborts_per_commit",
        commits > 0 ? static_cast<double>(traced_to.aborts -
                                          traced_from.aborts) / commits
                    : 0,
        "ratio");
  r.add("store.retries_per_commit",
        commits > 0 ? static_cast<double>(traced_to.retries -
                                          traced_from.retries) / commits
                    : 0,
        "ratio");
  r.add("store.feed_depth_max", static_cast<double>(feed_depth_max), "count");
  const double batches =
      static_cast<double>(traced_to.comb_batches - traced_from.comb_batches);
  const double ops =
      static_cast<double>(traced_to.comb_ops - traced_from.comb_ops);
  r.add("core.ops_per_batch", batches > 0 ? ops / batches : 0, "ratio");
  r.add("trace.overhead_frac", 1.0 - median(tl.traced) / median(tl.plain),
        "ratio");
  return r;
}

}  // namespace medley::benchrec
