// A complete KV service over the wire: a sharded MedleyStore served by
// the epoll front-end (src/net), driven by real clients over TCP.
//
// The pipeline this demonstrates end to end:
//
//   client send_batch ──TCP──▶ worker reads one WAVE of frames
//                              ├─ PUT/DEL  → staged in the worker's
//                              │             open run (no store call)
//                              ├─ GET/...  → barrier: harvest, then run
//                              └─ harvest  → ONE apply_batch commits the
//                                            run, one transaction per
//                                            shard per 64 mutations
//                              one writev acks the wave ──▶ client
//
// so a batch of B pipelined mutations costs one syscall each way and one
// commit CAS per shard it touches, instead of B round trips and B
// transactions. Every
// ack the client reads is a commit-proof: the server encodes a response
// only after the mutation's transaction committed.
//
//   $ ./examples/kv_service

#include <cstdio>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "store/sharded_store.hpp"

using medley::store::ShardedMedleyStore;
using medley::store::StoreConfig;
namespace net = medley::net;

int main() {
  // The store: two shards, flat-combining group commit on for in-process
  // callers, metrics on (the net layer registers its families into the
  // same registry, so one METRICS scrape shows the whole request path).
  StoreConfig cfg;
  cfg.combining.enabled = true;
  cfg.metrics = true;
  cfg.metrics_registry = std::make_shared<medley::obs::MetricsRegistry>();
  ShardedMedleyStore<std::uint64_t, std::uint64_t> kv(2, cfg);

  // The server: epoll workers committing each wave's runs, ephemeral port.
  net::StoreAdapter<decltype(kv)> adapter(&kv);
  net::NetConfig ncfg;
  ncfg.workers = 2;
  ncfg.registry = cfg.metrics_registry;
  net::Server server(&adapter, ncfg);
  server.start();
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  // A pipelined writer: 64 PUTs leave in ONE syscall, arrive as one wave,
  // and commit as one group commit per shard — then a GET barrier reads
  // its writes.
  std::thread writer([&] {
    net::Client c("127.0.0.1", server.port());
    std::vector<net::Request> batch;
    for (std::uint64_t k = 0; k < 64; k++) {
      batch.push_back(c.make(net::Verb::kPut, k, k * 10));
    }
    batch.push_back(c.make(net::Verb::kGet, 42));
    auto rs = c.send_batch(batch);
    std::printf("writer: %zu acks, get(42) -> %lu\n", rs.size(),
                static_cast<unsigned long>(rs.back().val.value_or(0)));
  });
  writer.join();

  // A synchronous client: point ops, an atomic batch, ordered reads.
  net::Client c("127.0.0.1", server.port());
  c.put(1000, 1);
  c.rmw_add(1000, 41);  // 1 + 41, atomically
  c.multi_put({{2000, 2}, {2001, 3}});
  c.del(3);
  std::printf("sync:   get(1000) -> %lu, del(3) removed %lu\n",
              static_cast<unsigned long>(c.get(1000).value_or(0)),
              static_cast<unsigned long>(c.get(3).has_value()));
  for (auto [k, v] : c.scan(2000, 2)) {
    std::printf("scan:   %lu -> %lu\n", static_cast<unsigned long>(k),
                static_cast<unsigned long>(v));
  }

  // Admin verbs: the fixed stats block and a full Prometheus scrape.
  auto st = c.stats();
  std::printf(
      "stats:  %lu commits, %lu aborts, %lu keys, %lu combined ops in "
      "%lu batches\n",
      static_cast<unsigned long>(st.commits),
      static_cast<unsigned long>(st.aborts),
      static_cast<unsigned long>(st.keys),
      static_cast<unsigned long>(st.combined_ops),
      static_cast<unsigned long>(st.combined_batches));
  const std::string metrics = c.metrics();
  std::printf("scrape: %zu bytes of Prometheus exposition (%s)\n",
              metrics.size(),
              metrics.find("medley_net_requests_total") != std::string::npos
                  ? "net families present"
                  : "net families MISSING");

  // Graceful shutdown: in-flight waves are harvested (committing their
  // staged runs) and flushed before stop() returns; only then may the
  // store be torn down.
  server.stop();
  std::printf("server drained and stopped; %lu requests served\n",
              static_cast<unsigned long>(server.requests()));
  return 0;
}
