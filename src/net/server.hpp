#pragma once
// Epoll serving front-end: the network layer that feeds whole waves of
// requests into the store as group commits (ARCHITECTURE.md L10).
//
// Design in one paragraph: N worker threads, each with its own
// SO_REUSEPORT listening socket and its own epoll instance (acceptor-less
// — the kernel load-balances accepts), own the connections they accept.
// When a socket turns readable the worker drains it to EAGAIN and decodes
// EVERY complete frame buffered — that run of frames is a *wave*. PUT/DEL
// requests in the wave are staged through async_put/async_del, which only
// append the mutation to the worker's open run and return a lazy future;
// when the wave (or an ordering barrier within it — see below) ends, the
// worker harvests the futures in request order. The first get() applies
// the whole run with ONE apply_batch — one transaction, one commit CAS
// per run of up to 64 mutations — so the per-transaction protocol cost
// Ravi's inherent-cost argument says we cannot avoid is paid once per
// run, not once per request. The wave has exactly one producer, so no
// publication list or lock is needed to form the batch. Responses are
// encoded into one contiguous per-connection buffer and flushed with a
// single writev per wave.
//
// Ordering within a pipelined connection: responses are written in request
// order, and the wire observes program order — a read (GET/RANGE/SCAN),
// an RMW, a MULTI_PUT, or an admin verb acts as a barrier that harvests
// every mutation staged earlier in the wave before it executes, so a
// client that pipelines PUT(k) then GET(k) always reads its write.
//
// THE INVARIANT this layer adds (ARCHITECTURE.md): the wire never opens an
// ambient transaction. A worker thread is never inside an open transaction
// when it touches the store — every request maps to exactly one top-level
// store call or one slot of an apply_batch run (staged mutations resolve
// via TxFuture::get, outside any tx), so group commit, the read-only
// snapshot path, and flat-nesting semantics all behave exactly as the
// in-process API documents them, and graceful shutdown can always drain:
// a worker that stops between waves holds no transaction and no
// unharvested future.
//
// Acks are commit-proofs: a response is encoded only after its
// transaction's future resolved (TxFuture::get returns post-commit), so
// any byte the client reads as an OK ack refers to a committed mutation —
// the graceful-shutdown test pins "every acked request is in the store".

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/tx_exec.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"

namespace medley::net {

/// What the server needs from a store, type-erased so one server
/// implementation (server.cpp) serves any of the store flavors (plain,
/// sharded, range-sharded — the wire serves their common u64 -> u64
/// instantiation). Virtual dispatch costs ~1ns against a syscall-laden
/// request path; StoreAdapter below adapts any store in ~30 lines.
class StoreApi {
 public:
  virtual ~StoreApi() = default;

  using Async = TxFuture<std::optional<Val>>;

  virtual std::optional<Val> get(Key k) = 0;
  /// Stage-now/harvest-later mutations (the wave pipeline): the returned
  /// future is lazy, and resolving it commits the mutation together with
  /// the others the calling thread staged since (StoreAdapter's runs).
  /// Resolve on the staging thread, in staging order.
  virtual Async async_put(Key k, Val v) = 0;
  virtual Async async_del(Key k) = 0;
  virtual Val rmw_add(Key k, Val delta) = 0;
  virtual std::vector<std::pair<Key, Val>> range(Key lo, Key hi) = 0;
  virtual std::vector<std::pair<Key, Val>> scan(Key lo,
                                                std::size_t limit) = 0;
  virtual void multi_put(const std::vector<std::pair<Key, Val>>& kvs) = 0;
  virtual StatsBlob stats_blob() = 0;
  /// Prometheus text for the METRICS verb (empty when metrics are off).
  virtual std::string metrics_text() = 0;
};

/// StoreApi over any of the concrete stores. The store must outlive the
/// adapter; the adapter must outlive the server and every future it
/// returned.
template <typename Store>
class StoreAdapter final : public StoreApi {
 public:
  explicit StoreAdapter(Store* s) : s_(s) {}

  std::optional<Val> get(Key k) override { return s_->get(k); }
  Async async_put(Key k, Val v) override {
    return stage(Mutation{Mutation::kPut, k, v});
  }
  Async async_del(Key k) override {
    return stage(Mutation{Mutation::kDel, k});
  }
  Val rmw_add(Key k, Val delta) override {
    auto res = s_->read_modify_write(k, [delta](const std::optional<Val>& c) {
      return std::optional<Val>(c.value_or(0) + delta);
    });
    return res.value_or(0);
  }
  std::vector<std::pair<Key, Val>> range(Key lo, Key hi) override {
    return s_->range(lo, hi);
  }
  std::vector<std::pair<Key, Val>> scan(Key lo, std::size_t limit) override {
    return s_->scan(lo, limit);
  }
  void multi_put(const std::vector<std::pair<Key, Val>>& kvs) override {
    s_->multi_put(kvs);
  }
  StatsBlob stats_blob() override {
    auto st = s_->stats();
    StatsBlob b;
    b.commits = st.commits;
    b.aborts = st.aborts();
    b.keys = st.key_count();
    b.feed_depth = s_->feed_depth();
    b.combined_batches = s_->combined_batches();
    b.combined_ops = s_->combined_ops();
    return b;
  }
  std::string metrics_text() override { return s_->dump_metrics(); }

 private:
  using Mutation = typename Store::Mutation;
  using Op = typename Store::Op;

  /// A run: the PUT/DELs one thread staged on this adapter since its last
  /// run was applied. The first of its futures to resolve applies the
  /// whole run with one apply_batch; every future then reads its own op.
  /// Only the futures own a run, so a run whose futures were all dropped
  /// unresolved is discarded, never applied.
  struct Run {
    StoreAdapter* owner;
    std::vector<Op> ops;
    bool applied = false;
  };

  Async stage(Mutation m) {
    std::shared_ptr<Run> run = open_run();
    const std::size_t i = run->ops.size();
    run->ops.push_back(Op{std::move(m), std::nullopt, nullptr});
    return Async([run = std::move(run), i](Async& self, bool) {
      if (!run->applied) {
        run->owner->s_->apply_batch(run->ops);
        run->applied = true;
      }
      Op& op = run->ops[i];
      if (op.err) {
        self.set_error(op.err);
      } else {
        self.set_value(std::move(op.res));
      }
      return true;
    });
  }

  /// The calling thread's open (unapplied, still referenced) run on THIS
  /// adapter, or a new one. Each thread keeps weak handles to its open
  /// runs, one per adapter, so two adapters' runs never mix; handles of
  /// applied or discarded runs are pruned on the way.
  std::shared_ptr<Run> open_run() {
    thread_local std::vector<std::weak_ptr<Run>> open;
    for (auto it = open.begin(); it != open.end();) {
      std::shared_ptr<Run> run = it->lock();
      if (!run || run->applied) {
        it = open.erase(it);
      } else if (run->owner == this) {
        return run;
      } else {
        ++it;
      }
    }
    auto run = std::make_shared<Run>(Run{this, {}, false});
    open.push_back(run);
    return run;
  }

  Store* s_;
};

struct NetConfig {
  /// Listen address. Port 0 binds an ephemeral port; Server::port()
  /// reports the one the kernel picked (tests and the in-process bench
  /// rely on this).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Worker threads, each with its own SO_REUSEPORT listener + epoll set.
  /// Connections are owned by the worker that accepted them and never
  /// migrate, so per-connection state is single-threaded by construction.
  std::size_t workers = 1;

  /// Frame-size cap (protocol violation above it; see protocol.hpp).
  std::size_t max_frame = kDefaultMaxFrame;

  /// Registry the net_* families register into. Point it at the STORE's
  /// registry so one METRICS scrape exposes the whole request path
  /// (store families + net families); null = no net metrics.
  std::shared_ptr<obs::MetricsRegistry> registry;
};

/// The epoll server. start() binds and spawns the workers; stop() (or the
/// destructor) shuts down gracefully: workers finish the wave they are
/// processing — harvesting every outstanding future, which commits the
/// staged run — flush pending responses, close their
/// connections, and join. Only after stop() returns may the store be torn
/// down. A worker never holds an open transaction or an unharvested
/// future between waves, so the drain needs no handshake with the store.
class Server {
 public:
  Server(StoreApi* store, NetConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on every worker's socket, then spawn the workers.
  /// Throws std::system_error on any socket failure.
  void start();

  /// Graceful shutdown (idempotent): stop accepting, wake every worker,
  /// finish in-progress waves, flush, close, join.
  void stop();

  /// The bound port (after start(); the ephemeral-port case reads it
  /// from the first listener).
  std::uint16_t port() const { return bound_port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Connections currently open across all workers (the net_connections
  /// gauge reads this).
  std::uint64_t connections() const {
    return connections_.load(std::memory_order_relaxed);
  }
  /// Requests served since start, all verbs (errors included).
  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker;  // server.cpp owns the definition

  void worker_main(Worker& w);
  void init_metrics();

  StoreApi* store_;
  NetConfig cfg_;
  std::atomic<bool> running_{false};
  std::uint16_t bound_port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_{0};

  // net_* instruments (null when cfg_.registry is). Registered once in
  // init_metrics(); workers bump them with per-thread-slot counters /
  // relaxed adds only — the observability-is-passive invariant.
  obs::Counter* req_counters_[10] = {};    // by Verb value (1..9)
  obs::Counter* err_counters_[7] = {};     // 0 = io, 2..6 by Status value
  obs::Histogram* batch_hist_ = nullptr;   // frames per wave
  /// Keep-alive handshake for the net_connections pull gauge: the gauge
  /// closure lives in the (possibly shared, possibly longer-lived)
  /// registry; this flag tells it the server it reads is gone.
  std::shared_ptr<std::atomic<bool>> conn_gauge_alive_;
};

}  // namespace medley::net
