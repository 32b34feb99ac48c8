// Epoll worker implementation of net::Server — see server.hpp for the
// wave -> apply_batch design and the ordering/shutdown contracts, and
// ARCHITECTURE.md L10 for the request walkthrough.

#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <unordered_map>

#include "core/tx_domain.hpp"

namespace medley::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// One listening socket: SO_REUSEPORT so every worker binds the same
/// address and the kernel spreads accepts across them (the acceptor-less
/// design — no handoff queue, no shared accept lock).
int make_listener(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
    ::close(fd);
    throw_errno("setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    errno = EINVAL;
    throw_errno("inet_pton");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 256) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind/listen");
  }
  return fd;
}

std::uint16_t bound_port_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

}  // namespace

/// One request whose mutation is staged in the worker's open run: the
/// future to harvest and the header bytes its response must echo. Kept in
/// request order; harvested in that order, so responses are too.
struct PendingOp {
  Verb verb;
  std::uint32_t id;
  StoreApi::Async fut;
};

/// Per-connection state, owned by exactly one worker thread.
struct Conn {
  explicit Conn(int fd_) : fd(fd_) {}
  int fd;
  FrameBuffer in;
  std::vector<std::uint8_t> out;  // encoded responses, flushed per wave
  std::size_t out_off = 0;        // already written to the socket
  std::vector<PendingOp> pending; // unharvested staged mutations (this wave)
  bool want_write = false;        // EPOLLOUT armed (kernel buffer full)
  bool close_after_flush = false; // protocol violation: answer, then close
};

struct Server::Worker {
  int epoll_fd = -1;
  int listen_fd = -1;
  int wake_fd = -1;  // eventfd stop() signals
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
};

Server::Server(StoreApi* store, NetConfig cfg)
    : store_(store), cfg_(std::move(cfg)) {
  if (cfg_.workers == 0) cfg_.workers = 1;
}

Server::~Server() { stop(); }

void Server::init_metrics() {
  if (!cfg_.registry) return;
  obs::MetricsRegistry& reg = *cfg_.registry;
  for (int v = 1; v <= 9; v++) {
    req_counters_[v] = &reg.counter(
        "medley_net_requests_total", "Requests served by the network layer",
        {{"op", verb_name(static_cast<Verb>(v))}});
  }
  static constexpr const char* kErrKinds[7] = {
      "io", nullptr, "malformed", "too_big", "aborted", "bad_verb",
      "shutdown"};
  for (int s = 0; s < 7; s++) {
    if (kErrKinds[s] == nullptr) continue;  // kNotFound is not an error
    err_counters_[s] = &reg.counter(
        "medley_net_errors_total",
        "Requests rejected or failed by the network layer",
        {{"kind", kErrKinds[s]}});
  }
  batch_hist_ = &reg.histogram(
      "medley_net_batch_size",
      "Complete frames decoded per ready-socket wave (the group-commit "
      "feeding size)",
      {});
  // Pull gauge over a plain atomic member: the registry may outlive this
  // server (it is usually the store's), so the closure captures a
  // shared_ptr keep-alive for the counter it reads.
  auto conns = std::make_shared<std::atomic<std::uint64_t>*>(&connections_);
  auto alive = std::make_shared<std::atomic<bool>>(true);
  conn_gauge_alive_ = alive;
  reg.gauge_fn("medley_net_connections",
               "Connections currently open across all workers", {},
               [conns, alive] {
                 return alive->load(std::memory_order_acquire)
                            ? static_cast<double>(
                                  (*conns)->load(std::memory_order_relaxed))
                            : 0.0;
               });
}

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  init_metrics();
  workers_.clear();
  threads_.clear();
  // Bind every worker's listener up front (worker 0 resolves an ephemeral
  // port; the rest re-bind the resolved one via SO_REUSEPORT).
  std::uint16_t port = cfg_.port;
  for (std::size_t i = 0; i < cfg_.workers; i++) {
    auto w = std::make_unique<Worker>();
    w->listen_fd = make_listener(cfg_.host, port);
    if (i == 0) {
      bound_port_ = bound_port_of(w->listen_fd);
      port = bound_port_;
    }
    w->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (w->wake_fd < 0) throw_errno("eventfd");
    w->epoll_fd = ::epoll_create1(0);
    if (w->epoll_fd < 0) throw_errno("epoll_create1");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->listen_fd;
    if (::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->listen_fd, &ev) < 0) {
      throw_errno("epoll_ctl(listen)");
    }
    ev.data.fd = w->wake_fd;
    if (::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->wake_fd, &ev) < 0) {
      throw_errno("epoll_ctl(wake)");
    }
    workers_.push_back(std::move(w));
  }
  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    threads_.emplace_back([this, wp = w.get()] { worker_main(*wp); });
  }
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Never started, or already stopped: nothing to join.
    if (threads_.empty()) return;
  }
  for (auto& w : workers_) {
    if (w->wake_fd >= 0) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(w->wake_fd, &one, sizeof(one));
    }
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  for (auto& w : workers_) {
    if (w->listen_fd >= 0) ::close(w->listen_fd);
    if (w->wake_fd >= 0) ::close(w->wake_fd);
    if (w->epoll_fd >= 0) ::close(w->epoll_fd);
    w->listen_fd = w->wake_fd = w->epoll_fd = -1;
  }
  workers_.clear();
  if (conn_gauge_alive_) {
    conn_gauge_alive_->store(false, std::memory_order_release);
  }
}

namespace {

/// Flush a connection's unwritten response bytes with one writev (one
/// syscall per wave on the happy path). Returns false on a dead socket.
bool flush_out(Conn& c) {
  while (c.out_off < c.out.size()) {
    iovec iov{c.out.data() + c.out_off, c.out.size() - c.out_off};
    const ssize_t n = ::writev(c.fd, &iov, 1);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer gone
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

}  // namespace

void Server::worker_main(Worker& w) {
  auto note_req = [this](Verb v) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    const int idx = static_cast<int>(v);
    if (idx >= 1 && idx <= 9 && req_counters_[idx] != nullptr) {
      req_counters_[idx]->inc();
    }
  };
  auto note_err = [this](int kind_idx) {
    if (kind_idx >= 0 && kind_idx < 7 && err_counters_[kind_idx] != nullptr) {
      err_counters_[kind_idx]->inc();
    }
  };

  /// Harvest every staged mutation of the wave, in request order,
  /// encoding each response as its transaction resolves. The first get()
  /// commits the whole run with one apply_batch; the rest read their
  /// already-committed results.
  auto harvest = [&](Conn& c) {
    for (PendingOp& p : c.pending) {
      try {
        std::optional<Val> old = p.fut.get();
        encode_value(c.out, p.verb, p.id, old);
      } catch (const core::TransactionAborted&) {
        encode_status(c.out, p.verb, p.id, Status::kAborted);
        note_err(static_cast<int>(Status::kAborted));
      } catch (...) {
        encode_status(c.out, p.verb, p.id, Status::kAborted);
        note_err(static_cast<int>(Status::kAborted));
      }
    }
    c.pending.clear();
  };

  /// Execute one parsed request. PUT/DEL are staged and return
  /// immediately (response deferred to harvest); every other verb is an
  /// ordering barrier: harvest first, then execute synchronously.
  auto dispatch = [&](Conn& c, const Request& rq) {
    note_req(rq.verb);
    switch (rq.verb) {
      case Verb::kPut:
        c.pending.push_back(
            {rq.verb, rq.id, store_->async_put(rq.a, rq.b)});
        return;
      case Verb::kDel:
        c.pending.push_back({rq.verb, rq.id, store_->async_del(rq.a)});
        return;
      default:
        break;
    }
    harvest(c);
    try {
      switch (rq.verb) {
        case Verb::kGet:
          encode_value(c.out, rq.verb, rq.id, store_->get(rq.a));
          break;
        case Verb::kRmwAdd:
          encode_value(c.out, rq.verb, rq.id, store_->rmw_add(rq.a, rq.b));
          break;
        case Verb::kRange:
          encode_pairs(c.out, rq.verb, rq.id, store_->range(rq.a, rq.b));
          break;
        case Verb::kScan:
          encode_pairs(c.out, rq.verb, rq.id, store_->scan(rq.a, rq.limit));
          break;
        case Verb::kMultiPut: {
          std::vector<std::pair<Key, Val>> kvs;
          kvs.reserve(rq.npairs);
          for (std::uint32_t i = 0; i < rq.npairs; i++) {
            kvs.push_back(rq.pair(i));
          }
          store_->multi_put(kvs);
          encode_status(c.out, rq.verb, rq.id, Status::kOk);
          break;
        }
        case Verb::kStats:
          encode_stats(c.out, rq.id, store_->stats_blob());
          break;
        case Verb::kMetrics:
          encode_text(c.out, rq.id, store_->metrics_text());
          break;
        default:
          break;  // unreachable: PUT/DEL returned above
      }
    } catch (const core::TransactionAborted&) {
      encode_status(c.out, rq.verb, rq.id, Status::kAborted);
      note_err(static_cast<int>(Status::kAborted));
    }
  };

  /// Drain the socket, decode the wave, dispatch every frame, harvest,
  /// flush with one writev. Returns false when the connection must close.
  auto on_readable = [&](Conn& c) -> bool {
    bool peer_closed = false;
    for (;;) {
      std::uint8_t* dst = c.in.writable(16384);
      const ssize_t n = ::read(c.fd, dst, 16384);
      if (n > 0) {
        c.in.commit(static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        peer_closed = true;  // still serve what arrived before EOF
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      note_err(0);  // io
      return false;
    }
    std::size_t wave = 0;
    bool oversize = false;
    while (auto f = c.in.next(cfg_.max_frame, &oversize)) {
      wave++;
      Request rq;
      const Status st = parse_request(*f, rq);
      if (st != Status::kOk) {
        note_req(rq.verb);
        note_err(static_cast<int>(st));
        harvest(c);  // error responses keep request order too
        encode_status(c.out, rq.verb, rq.id, st);
        if (st == Status::kTooBig) c.close_after_flush = true;
        continue;
      }
      dispatch(c, rq);
    }
    if (oversize) {
      // The length prefix itself is the violation; the stream cannot be
      // re-synchronized, so answer and close. (The verb/id of the
      // offending frame may not even be buffered yet — echo zeros.)
      note_err(static_cast<int>(Status::kTooBig));
      encode_status(c.out, Verb::kGet, 0, Status::kTooBig);
      c.close_after_flush = true;
    }
    harvest(c);
    if (wave > 0 && batch_hist_ != nullptr) batch_hist_->record(wave);
    c.in.compact();
    if (!flush_out(c)) return false;
    if (c.close_after_flush && c.out_off >= c.out.size()) return false;
    return !peer_closed;
  };

  auto arm = [&](Conn& c) {
    // (Re-)register interest: EPOLLOUT only while a flush is blocked.
    const bool want_write = c.out_off < c.out.size();
    if (want_write == c.want_write) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_write = want_write;
  };

  auto close_conn = [&](int fd) {
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    w.conns.erase(fd);
    connections_.fetch_sub(1, std::memory_order_relaxed);
  };

  epoll_event events[64];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(w.epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; i++) {
      const int fd = events[i].data.fd;
      if (fd == w.wake_fd) {
        std::uint64_t drain;
        [[maybe_unused]] ssize_t r = ::read(w.wake_fd, &drain, sizeof(drain));
        continue;  // running_ re-checked by the loop condition
      }
      if (fd == w.listen_fd) {
        for (;;) {
          const int cfd =
              ::accept4(w.listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
          if (cfd < 0) break;  // EAGAIN or transient
          const int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = cfd;
          if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, cfd, &ev) < 0) {
            ::close(cfd);
            continue;
          }
          w.conns.emplace(cfd, std::make_unique<Conn>(cfd));
          connections_.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;  // closed earlier this batch
      Conn& c = *it->second;
      bool alive = true;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        alive = false;
      } else {
        if (events[i].events & EPOLLOUT) alive = flush_out(c);
        if (alive && (events[i].events & EPOLLIN)) alive = on_readable(c);
      }
      if (!alive) {
        close_conn(fd);
      } else {
        arm(c);
      }
    }
  }
  // Graceful drain: the loop only exits BETWEEN waves, so there are no
  // unharvested futures and no open transactions on this thread — every
  // run this worker staged has committed and its acks are encoded. Flush
  // what the kernel will take, then close. Bytes the peer never receives
  // were never acked as committed-and-read; bytes it does receive are
  // commit-proofs (harvest preceded encode).
  for (auto& [fd, c] : w.conns) {
    flush_out(*c);
    ::close(fd);
    connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  w.conns.clear();
}

}  // namespace medley::net
