// The layer-cost ledger: on one uncontended thread, price a GET and a PUT
// at each boundary a served request crosses, over the wire workloads'
// keyspace (ledger.get.* should move wire-read lat_p50_us; ledger.put.*
// should move wire-write throughput):
//
//   ds            MichaelHashTable op outside any transaction
//   ro_tx / tx    the same op as a read-only / full TxExecutor transaction
//   store         the served store's op (2 shards, feed, metrics); PUT is
//                 priced with combining off (store) and on (store_comb)
//   wire_sync     one Client round trip against the served store
//   wire_pipelined one send_batch of 16, per request
//
// Each price is the median over rounds of the round's mean.

#include <vector>

#include "common.hpp"
#include "core/medley.hpp"
#include "ds/michael_hashtable.hpp"
#include "served.hpp"

namespace medley::benchrec {

namespace {

constexpr int kRounds = 15;
std::atomic<std::uint64_t> g_sink{0};

template <typename Op>
double price_ns(const std::vector<Key>& keys, int per_round, Op&& op,
                const std::function<void()>& between = nullptr) {
  std::vector<double> means;
  std::size_t i = 0;
  for (int r = 0; r < kRounds; r++) {
    const std::uint64_t t0 = now_ns();
    for (int j = 0; j < per_round; j++) op(keys[i++ % keys.size()]);
    means.push_back(static_cast<double>(now_ns() - t0) / per_round);
    if (between) between();
  }
  return median(means);
}

}  // namespace

void run_ledger(const Options& opt, Result& r) {
  const Key nkeys = opt.smoke ? 10'000 : 100'000;
  util::Xoshiro256 rng(split_seed(opt.seed, 900));
  std::vector<Key> keys(1u << 16);
  for (Key& k : keys) k = rng.next_bounded(nkeys);
  std::uint64_t sink = 0;
  std::uint64_t seq = 0;
  const int fast = opt.smoke ? 2'000 : 20'000;
  const int slow = opt.smoke ? 200 : 2'000;
  pin_to(1);

  {
    TxManager mgr;
    TxExecutor exec;
    ds::MichaelHashTable<Key, Val> ht(&mgr, 1u << 16);
    for (Key k = 0; k < nkeys; k++) ht.insert(k, tag(k, 0));
    r.add("ledger.get.ds_ns", price_ns(keys, fast, [&](Key k) {
            sink += ht.get(k).value_or(0);
          }), "ns");
    r.add("ledger.get.ro_tx_ns", price_ns(keys, fast, [&](Key k) {
            sink += exec.execute_ro(mgr, [&] { return ht.get(k); })
                        .value->value_or(0);
          }), "ns");
    r.add("ledger.get.tx_ns", price_ns(keys, fast, [&](Key k) {
            sink += exec.execute(mgr, [&] { return ht.get(k); })
                        .value->value_or(0);
          }), "ns");
    r.add("ledger.put.ds_ns", price_ns(keys, fast, [&](Key k) {
            ht.put(k, tag(k, ++seq));
          }), "ns");
    r.add("ledger.put.tx_ns", price_ns(keys, fast, [&](Key k) {
            exec.execute(mgr, [&] { ht.put(k, tag(k, ++seq)); });
          }), "ns");
  }

  const std::atomic<int> untraced{kWarm};
  // Each server's epoll worker inherits CPU 0; the pricing thread runs on 1.
  pin_to(0);
  {
    Served plain(nkeys, /*combining=*/false, &untraced);
    pin_to(1);
    r.add("ledger.put.store_ns", price_ns(keys, slow * 5, [&](Key k) {
            plain.store.put(k, tag(k, ++seq));
          }, [&] { plain.drain_feed(); }), "ns");
  }

  pin_to(0);
  Served sv(nkeys, /*combining=*/true, &untraced);
  pin_to(1);
  auto drain = [&] { sv.drain_feed(); };
  r.add("ledger.get.store_ns", price_ns(keys, fast, [&](Key k) {
          sink += sv.store.get(k).value_or(0);
        }), "ns");
  r.add("ledger.put.store_comb_ns", price_ns(keys, slow * 5, [&](Key k) {
          sv.store.put(k, tag(k, ++seq));
        }, drain), "ns");

  net::Client c("127.0.0.1", sv.server.port());
  r.add("ledger.get.wire_sync_us", price_ns(keys, slow, [&](Key k) {
          sink += c.get(k).value_or(0);
        }) / 1e3, "us");
  r.add("ledger.put.wire_sync_us", price_ns(keys, slow, [&](Key k) {
          c.put(k, tag(k, ++seq));
        }, drain) / 1e3, "us");
  std::vector<net::Request> batch;
  auto pipelined = [&](net::Verb v) {
    return price_ns(keys, slow / 16, [&](Key k) {
             batch.clear();
             for (Key i = 0; i < 16; i++) {
               const Key kk = (k + i * 7919) % nkeys;
               batch.push_back(c.make(v, kk, tag(kk, ++seq)));
             }
             sink += c.send_batch(batch).size();
           }, drain) / 16 / 1e3;
  };
  r.add("ledger.get.wire_pipelined_us", pipelined(net::Verb::kGet), "us");
  r.add("ledger.put.wire_pipelined_us", pipelined(net::Verb::kPut), "us");
  g_sink.store(sink, std::memory_order_relaxed);  // keeps the reads live
}

}  // namespace medley::benchrec
