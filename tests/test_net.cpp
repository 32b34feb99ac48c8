// The network serving subsystem (src/net): wire codec, epoll server,
// client. Contracts under test:
//   N1  codec: every verb's request and every response shape round-trips
//       byte-exactly, through any split of the byte stream (the decoder
//       tolerates one-byte-at-a-time arrival and never over-reads);
//   N2  rejection: malformed bodies, unknown verbs, over-cap MULTI_PUTs
//       and oversized length prefixes are rejected with their typed
//       Status — per-frame for malformed (stream lives), stream-fatal
//       for oversize;
//   N3  e2e: a live server over a real store agrees with a std::map
//       oracle for mixed sync traffic, and a pipelined client that sends
//       PUT(k) ... GET(k) in one batch reads its own write (the wave's
//       ordering barrier);
//   N4  shutdown drain: stopping the server mid-load loses no acked
//       mutation — every OK-acked PUT is in the store afterwards, and
//       replaying the change feed reproduces the primary exactly (waves
//       are fully harvested before a worker exits, so no combiner state
//       is abandoned);
//   N5  observability: one METRICS scrape through the wire exposes both
//       the store families and the net families.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "store/feed.hpp"
#include "store/store.hpp"

using medley::TxManager;
using medley::store::MedleyStore;
using medley::store::StoreConfig;
namespace net = medley::net;
using net::FrameBuffer;
using net::FrameView;
using net::Request;
using net::Response;
using net::Status;
using net::Verb;

using Store = MedleyStore<std::uint64_t, std::uint64_t>;

namespace {

// ---- N1: codec round trips -------------------------------------------------

/// Feed `bytes` into a FrameBuffer `step` bytes at a time, collecting
/// every complete frame as an owned copy (FrameViews die on append).
std::vector<std::vector<std::uint8_t>> reassemble(
    const std::vector<std::uint8_t>& bytes, std::size_t step) {
  FrameBuffer fb;
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t off = 0; off < bytes.size(); off += step) {
    const std::size_t n = std::min(step, bytes.size() - off);
    fb.append(bytes.data() + off, n);
    bool oversize = false;
    while (auto f = fb.next(net::kDefaultMaxFrame, &oversize)) {
      frames.emplace_back(f->data, f->data + f->len);
    }
    EXPECT_FALSE(oversize);
  }
  return frames;
}

Request req(Verb v, std::uint32_t id, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint32_t limit = 0) {
  Request rq;
  rq.verb = v;
  rq.id = id;
  rq.a = a;
  rq.b = b;
  rq.limit = limit;
  return rq;
}

TEST(NetCodec, EveryVerbRoundTripsThroughAnyStreamSplit) {
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> kvs = {
      {1, 10}, {2, 20}, {3, 30}};
  std::vector<std::uint8_t> stream;
  net::encode_request(stream, req(Verb::kGet, 1, 42));
  net::encode_request(stream, req(Verb::kPut, 2, 42, 77));
  net::encode_request(stream, req(Verb::kDel, 3, 42));
  net::encode_request(stream, req(Verb::kRmwAdd, 4, 42, 5));
  net::encode_request(stream, req(Verb::kRange, 5, 10, 20));
  net::encode_request(stream, req(Verb::kScan, 6, 10, 0, 7));
  net::encode_request(stream, req(Verb::kMultiPut, 7), kvs);
  net::encode_request(stream, req(Verb::kStats, 8));
  net::encode_request(stream, req(Verb::kMetrics, 9));

  // Every split granularity must yield the identical frame sequence —
  // one byte at a time included (N1's partial-frame reassembly).
  for (std::size_t step : {std::size_t{1}, std::size_t{3}, stream.size()}) {
    auto frames = reassemble(stream, step);
    ASSERT_EQ(frames.size(), 9u) << "step=" << step;
    Request rq;
    auto parse = [&](std::size_t i) {
      FrameView f{frames[i].data(), frames[i].size()};
      return net::parse_request(f, rq);
    };
    ASSERT_EQ(parse(0), Status::kOk);
    EXPECT_EQ(rq.verb, Verb::kGet);
    EXPECT_EQ(rq.id, 1u);
    EXPECT_EQ(rq.a, 42u);
    ASSERT_EQ(parse(1), Status::kOk);
    EXPECT_EQ(rq.verb, Verb::kPut);
    EXPECT_EQ(rq.a, 42u);
    EXPECT_EQ(rq.b, 77u);
    ASSERT_EQ(parse(2), Status::kOk);
    EXPECT_EQ(rq.verb, Verb::kDel);
    ASSERT_EQ(parse(3), Status::kOk);
    EXPECT_EQ(rq.verb, Verb::kRmwAdd);
    EXPECT_EQ(rq.b, 5u);
    ASSERT_EQ(parse(4), Status::kOk);
    EXPECT_EQ(rq.verb, Verb::kRange);
    EXPECT_EQ(rq.a, 10u);
    EXPECT_EQ(rq.b, 20u);
    ASSERT_EQ(parse(5), Status::kOk);
    EXPECT_EQ(rq.verb, Verb::kScan);
    EXPECT_EQ(rq.limit, 7u);
    ASSERT_EQ(parse(6), Status::kOk);
    EXPECT_EQ(rq.verb, Verb::kMultiPut);
    ASSERT_EQ(rq.npairs, 3u);
    for (std::uint32_t i = 0; i < 3; i++) {
      EXPECT_EQ(rq.pair(i), kvs[i]);
    }
    ASSERT_EQ(parse(7), Status::kOk);
    EXPECT_EQ(rq.verb, Verb::kStats);
    ASSERT_EQ(parse(8), Status::kOk);
    EXPECT_EQ(rq.verb, Verb::kMetrics);
  }
}

TEST(NetCodec, ResponsesRoundTrip) {
  std::vector<std::uint8_t> stream;
  net::encode_value(stream, Verb::kGet, 1, std::uint64_t{99});
  net::encode_value(stream, Verb::kGet, 2, std::nullopt);  // -> kNotFound
  net::encode_value(stream, Verb::kPut, 3, std::nullopt);  // fresh key: OK
  net::encode_pairs(stream, Verb::kRange, 4, {{5, 50}, {6, 60}});
  net::StatsBlob blob;
  blob.commits = 7;
  blob.aborts = 1;
  blob.keys = 3;
  blob.feed_depth = 2;
  blob.combined_batches = 4;
  blob.combined_ops = 9;
  net::encode_stats(stream, 5, blob);
  net::encode_text(stream, 6, "# HELP x y\n");
  net::encode_status(stream, Verb::kPut, 7, Status::kAborted);

  auto frames = reassemble(stream, 1);
  ASSERT_EQ(frames.size(), 7u);
  Response r;
  auto parse = [&](std::size_t i) {
    FrameView f{frames[i].data(), frames[i].size()};
    return net::parse_response(f, r);
  };
  ASSERT_TRUE(parse(0));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.val, std::optional<std::uint64_t>(99));
  ASSERT_TRUE(parse(1));
  EXPECT_EQ(r.status, Status::kNotFound);
  EXPECT_EQ(r.id, 2u);
  ASSERT_TRUE(parse(2));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_FALSE(r.val.has_value());
  ASSERT_TRUE(parse(3));
  ASSERT_EQ(r.pairs.size(), 2u);
  EXPECT_EQ(r.pairs[1], (std::pair<std::uint64_t, std::uint64_t>{6, 60}));
  ASSERT_TRUE(parse(4));
  EXPECT_EQ(r.stats.commits, 7u);
  EXPECT_EQ(r.stats.combined_ops, 9u);
  ASSERT_TRUE(parse(5));
  EXPECT_EQ(r.text, "# HELP x y\n");
  ASSERT_TRUE(parse(6));
  EXPECT_EQ(r.status, Status::kAborted);
  EXPECT_EQ(r.verb, Verb::kPut);
  EXPECT_EQ(r.id, 7u);
}

// ---- N2: rejection ---------------------------------------------------------

TEST(NetCodec, MalformedBodiesAreRejectedWithoutOverreading) {
  Request rq;
  // GET with a truncated key.
  std::vector<std::uint8_t> f = {static_cast<std::uint8_t>(Verb::kGet),
                                 1, 0, 0, 0, 0xAA, 0xBB};
  EXPECT_EQ(net::parse_request({f.data(), f.size()}, rq),
            Status::kMalformed);
  EXPECT_EQ(rq.id, 1u) << "header echoed for the error response";

  // Unknown verb byte.
  f = {0x7F, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(net::parse_request({f.data(), f.size()}, rq), Status::kBadVerb);
  EXPECT_EQ(rq.id, 2u);

  // MULTI_PUT whose pair count promises more bytes than the frame holds:
  // the parser must reject (kMalformed), not read past f.len.
  f.clear();
  net::put_u8(f, static_cast<std::uint8_t>(Verb::kMultiPut));
  net::put_u32(f, 3);
  net::put_u32(f, 4);       // claims 4 pairs = 64 bytes...
  net::put_u64(f, 1);
  net::put_u64(f, 10);      // ...delivers 1
  EXPECT_EQ(net::parse_request({f.data(), f.size()}, rq),
            Status::kMalformed);

  // MULTI_PUT over the pair cap is its own (stream-fatal) status.
  f.clear();
  net::put_u8(f, static_cast<std::uint8_t>(Verb::kMultiPut));
  net::put_u32(f, 4);
  net::put_u32(f, net::kMaxMultiPutPairs + 1);
  EXPECT_EQ(net::parse_request({f.data(), f.size()}, rq), Status::kTooBig);

  // Sub-header frame.
  f = {static_cast<std::uint8_t>(Verb::kGet), 0};
  EXPECT_EQ(net::parse_request({f.data(), f.size()}, rq),
            Status::kMalformed);
}

TEST(NetCodec, OversizedLengthPrefixIsStreamFatal) {
  FrameBuffer fb;
  std::vector<std::uint8_t> bytes;
  net::put_u32(bytes, 1u << 24);  // frame "length" far over the cap
  fb.append(bytes.data(), bytes.size());
  bool oversize = false;
  EXPECT_FALSE(fb.next(1 << 20, &oversize).has_value());
  EXPECT_TRUE(oversize);
}

TEST(NetCodec, DecoderNeverYieldsIncompleteFrames) {
  // A complete frame followed by a partial one: the partial bytes stay
  // buffered, untouched, until their tail arrives.
  std::vector<std::uint8_t> bytes;
  net::encode_request(bytes, req(Verb::kGet, 1, 5));
  const std::size_t first = bytes.size();
  net::encode_request(bytes, req(Verb::kPut, 2, 6, 7));

  FrameBuffer fb;
  fb.append(bytes.data(), first + 3);  // second frame: 3 of its bytes
  bool oversize = false;
  ASSERT_TRUE(fb.next(net::kDefaultMaxFrame, &oversize).has_value());
  EXPECT_FALSE(fb.next(net::kDefaultMaxFrame, &oversize).has_value());
  EXPECT_EQ(fb.buffered(), 3u);
  fb.compact();  // mid-stream compaction must preserve the partial bytes
  fb.append(bytes.data() + first + 3, bytes.size() - first - 3);
  auto f = fb.next(net::kDefaultMaxFrame, &oversize);
  ASSERT_TRUE(f.has_value());
  Request rq;
  ASSERT_EQ(net::parse_request(*f, rq), Status::kOk);
  EXPECT_EQ(rq.verb, Verb::kPut);
  EXPECT_EQ(rq.a, 6u);
  EXPECT_EQ(rq.b, 7u);
}

// ---- live-server fixture ---------------------------------------------------

struct LiveServer {
  TxManager mgr;
  std::shared_ptr<medley::obs::MetricsRegistry> registry;
  std::unique_ptr<Store> store;
  std::unique_ptr<net::StoreAdapter<Store>> adapter;
  std::unique_ptr<net::Server> server;

  explicit LiveServer(std::size_t workers = 1, bool combining = true) {
    registry = std::make_shared<medley::obs::MetricsRegistry>();
    StoreConfig cfg;
    cfg.buckets = 1u << 10;
    cfg.combining.enabled = combining;
    cfg.metrics = true;
    cfg.metrics_registry = registry;
    store = std::make_unique<Store>(&mgr, cfg);
    adapter = std::make_unique<net::StoreAdapter<Store>>(store.get());
    net::NetConfig ncfg;
    ncfg.workers = workers;
    ncfg.registry = registry;
    server = std::make_unique<net::Server>(adapter.get(), ncfg);
    server->start();
  }
  ~LiveServer() { server->stop(); }

  net::Client connect() {
    return net::Client("127.0.0.1", server->port());
  }
};

// ---- N3: end-to-end against an oracle --------------------------------------

TEST(NetServer, SyncOpsAgreeWithOracle) {
  LiveServer ls;
  net::Client c = ls.connect();
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  auto rnd = [&seed] {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (int i = 0; i < 400; i++) {
    const std::uint64_t k = rnd() % 64;
    switch (rnd() % 4) {
      case 0: {
        const std::uint64_t v = rnd();
        auto prev = c.put(k, v);
        auto it = oracle.find(k);
        EXPECT_EQ(prev, it == oracle.end()
                            ? std::nullopt
                            : std::optional<std::uint64_t>(it->second));
        oracle[k] = v;
        break;
      }
      case 1: {
        auto prev = c.del(k);
        auto it = oracle.find(k);
        EXPECT_EQ(prev, it == oracle.end()
                            ? std::nullopt
                            : std::optional<std::uint64_t>(it->second));
        oracle.erase(k);
        break;
      }
      case 2: {
        auto got = c.get(k);
        auto it = oracle.find(k);
        EXPECT_EQ(got, it == oracle.end()
                           ? std::nullopt
                           : std::optional<std::uint64_t>(it->second));
        break;
      }
      case 3: {
        const std::uint64_t d = rnd() % 1000;
        const std::uint64_t expect =
            (oracle.count(k) ? oracle[k] : 0) + d;
        EXPECT_EQ(c.rmw_add(k, d), expect);
        oracle[k] = expect;
        break;
      }
    }
  }
  // Ordered reads agree with the oracle wholesale.
  auto rows = c.range(0, ~0ull);
  ASSERT_EQ(rows.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : rows) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
  auto head = c.scan(0, 5);
  EXPECT_EQ(head.size(), std::min<std::size_t>(5, oracle.size()));

  c.multi_put({{1000, 1}, {1001, 2}, {1002, 3}});
  EXPECT_EQ(c.get(1001), std::optional<std::uint64_t>(2));

  auto stats = c.stats();
  EXPECT_GT(stats.commits, 0u);
  EXPECT_EQ(stats.keys, oracle.size() + 3);
}

TEST(NetServer, PipelinedWaveReadsItsOwnWrites) {
  LiveServer ls;
  net::Client c = ls.connect();
  // One batch: 16 PUTs then a GET of each key — the GETs are ordering
  // barriers, so each must observe the PUT that preceded it in the wave.
  std::vector<Request> batch;
  for (std::uint64_t k = 0; k < 16; k++) {
    batch.push_back(c.make(Verb::kPut, k, k * 100));
  }
  for (std::uint64_t k = 0; k < 16; k++) {
    batch.push_back(c.make(Verb::kGet, k));
  }
  auto rs = c.send_batch(batch);
  ASSERT_EQ(rs.size(), 32u);
  for (std::size_t i = 0; i < 32; i++) {
    EXPECT_EQ(rs[i].id, batch[i].id) << "responses arrive in request order";
  }
  for (std::uint64_t k = 0; k < 16; k++) {
    EXPECT_EQ(rs[16 + k].status, Status::kOk);
    EXPECT_EQ(rs[16 + k].val, std::optional<std::uint64_t>(k * 100));
  }
  // DELs pipeline the same way; a deleted key's GET misses.
  batch.clear();
  batch.push_back(c.make(Verb::kDel, 3));
  batch.push_back(c.make(Verb::kGet, 3));
  rs = c.send_batch(batch);
  EXPECT_EQ(rs[0].val, std::optional<std::uint64_t>(300));
  EXPECT_EQ(rs[1].status, Status::kNotFound);
}

TEST(NetServer, PipelinedWavesFormCombinedBatches) {
  LiveServer ls;
  net::Client c = ls.connect();
  std::vector<Request> batch;
  for (std::uint64_t k = 0; k < 32; k++) {
    batch.push_back(c.make(Verb::kPut, k, k));
  }
  auto rs = c.send_batch(batch);
  for (const auto& r : rs) EXPECT_EQ(r.status, Status::kOk);
  auto stats = c.stats();
  EXPECT_GT(stats.combined_ops, 0u)
      << "a pipelined wave of PUTs should commit via the combiner";
  EXPECT_LT(stats.combined_batches, stats.combined_ops)
      << "waves should batch (fewer batches than ops)";
}

TEST(NetServer, MalformedFrameGetsTypedErrorAndStreamSurvives) {
  LiveServer ls;
  net::Client c = ls.connect();
  // Hand-craft: a valid PUT, a malformed GET (truncated key), a valid
  // GET. The middle frame must draw kMalformed; the others must work.
  std::vector<std::uint8_t> raw;
  net::encode_request(raw, req(Verb::kPut, 1, 5, 50));
  net::put_u32(raw, 7);  // frame: verb + id + 2 bytes (too short for GET)
  net::put_u8(raw, static_cast<std::uint8_t>(Verb::kGet));
  net::put_u32(raw, 2);
  net::put_u8(raw, 0xDE);
  net::put_u8(raw, 0xAD);
  net::encode_request(raw, req(Verb::kGet, 3, 5));
  ssize_t n = ::write(c.fd(), raw.data(), raw.size());
  ASSERT_EQ(n, static_cast<ssize_t>(raw.size()));

  FrameBuffer fb;
  std::vector<Response> got;
  while (got.size() < 3) {
    std::uint8_t buf[4096];
    n = ::read(c.fd(), buf, sizeof(buf));
    ASSERT_GT(n, 0);
    fb.append(buf, static_cast<std::size_t>(n));
    bool oversize = false;
    while (auto f = fb.next(net::kDefaultMaxFrame, &oversize)) {
      Response r;
      ASSERT_TRUE(net::parse_response(*f, r));
      got.push_back(r);
    }
  }
  EXPECT_EQ(got[0].status, Status::kOk);
  EXPECT_EQ(got[1].status, Status::kMalformed);
  EXPECT_EQ(got[1].id, 2u) << "error echoes the offending request id";
  EXPECT_EQ(got[2].status, Status::kOk);
  EXPECT_EQ(got[2].val, std::optional<std::uint64_t>(50))
      << "the stream keeps serving after a per-frame rejection";
}

// ---- N4: graceful-shutdown drain -------------------------------------------

TEST(NetServer, ShutdownMidLoadLosesNoAckedMutation) {
  LiveServer ls(/*workers=*/1, /*combining=*/true);
  constexpr int kClients = 3;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  // acked[t] = number of OK-acked puts by thread t; thread t writes keys
  // t*1'000'000 + i = i, in order, so "acked" is a prefix count.
  std::vector<std::atomic<std::uint64_t>> acked(kClients);
  for (int t = 0; t < kClients; t++) {
    threads.emplace_back([&, t] {
      try {
        net::Client c = ls.connect();
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::uint64_t i = 0;; i++) {
          c.put(t * 1'000'000ull + i, i);
          // put() returned => the OK ack arrived => committed.
          acked[t].fetch_add(1, std::memory_order_release);
        }
      } catch (...) {
        // Server went away mid-call: everything acked so far stands.
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Let real load build, then yank the server mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ls.server->stop();
  for (auto& th : threads) th.join();

  // Every acked PUT is in the store (acks are commit-proofs).
  std::uint64_t total_acked = 0;
  for (int t = 0; t < kClients; t++) {
    const std::uint64_t n = acked[t].load(std::memory_order_acquire);
    total_acked += n;
    for (std::uint64_t i = 0; i < n; i++) {
      ASSERT_EQ(ls.store->get(t * 1'000'000ull + i),
                std::optional<std::uint64_t>(i))
          << "acked put lost: client " << t << " op " << i;
    }
  }
  EXPECT_GT(total_acked, 0u) << "the load never started; test is vacuous";

  // Feed replay reproduces the primary exactly: no combiner batch was
  // abandoned half-committed by the shutdown. (Compared key-by-key — a
  // whole-store range() at this size would deterministically Capacity-
  // abort; the feed's length vs the store's key count pins the sizes.)
  std::map<std::uint64_t, std::uint64_t> replayed;
  for (;;) {
    auto entries = ls.store->poll_feed(256);
    if (entries.empty()) break;
    medley::store::replay_feed(entries, replayed);
  }
  ASSERT_EQ(replayed.size(), ls.store->stats().key_count());
  for (const auto& [k, v] : replayed) {
    ASSERT_EQ(ls.store->get(k), std::optional<std::uint64_t>(v))
        << "feed disagrees with primary at key " << k;
  }
}

// ---- N5: METRICS through the wire ------------------------------------------

TEST(NetServer, MetricsScrapeExposesStoreAndNetFamilies) {
  LiveServer ls(/*workers=*/2);
  net::Client c = ls.connect();
  for (std::uint64_t k = 0; k < 10; k++) c.put(k, k);
  c.get(3);
  const std::string text = c.metrics();
  for (const char* family :
       {"medley_store_ops_total", "medley_store_op_latency_ns",
        "medley_store_aborts_total", "medley_store_keys",
        "medley_store_feed_depth", "medley_net_requests_total",
        "medley_net_errors_total", "medley_net_batch_size",
        "medley_net_connections"}) {
    EXPECT_NE(text.find(family), std::string::npos)
        << "family missing from wire scrape: " << family;
  }
  EXPECT_NE(text.find("# HELP"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("op=\"put\""), std::string::npos)
      << "net request counters are per-verb";
}

TEST(NetServer, ServesWithCombiningOff) {
  // The server's code path is identical with combining off (async ops
  // come back pre-resolved); the wire behavior must be too.
  LiveServer ls(/*workers=*/1, /*combining=*/false);
  net::Client c = ls.connect();
  std::vector<Request> batch;
  for (std::uint64_t k = 0; k < 8; k++) {
    batch.push_back(c.make(Verb::kPut, k, k + 1));
  }
  batch.push_back(c.make(Verb::kGet, 4));
  auto rs = c.send_batch(batch);
  EXPECT_EQ(rs.back().val, std::optional<std::uint64_t>(5));
  EXPECT_EQ(c.stats().combined_ops, 8u);
}

}  // namespace
