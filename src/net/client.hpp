#pragma once
// Blocking client for the Medley wire protocol (protocol.hpp): one
// connection, synchronous per-op calls, and a pipelined send_batch that
// writes a whole batch of requests in one syscall and then collects the
// responses in order — the client-side half of the server's wave path (a
// batch of B mutations arrives at the server as one readable wave and
// commits with one apply_batch, one transaction per 64 ops;
// bench/bench_net_ycsb.cpp measures exactly this against
// one-request-per-round-trip).
//
// Not thread-safe: one Client per thread (the protocol interleaves
// responses in request order per connection, so sharing a connection
// would need client-side demux this deliberately thin library omits).

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "net/protocol.hpp"

namespace medley::net {

/// Thrown when the peer misbehaves (connection reset, unparseable
/// response) — distinct from a well-formed error Status, which the
/// ops surface as return values / RequestError.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A well-formed non-OK response to a synchronous op that has no natural
/// miss encoding (kNotFound is NOT raised — absent keys come back as
/// nullopt).
class RequestError : public std::runtime_error {
 public:
  explicit RequestError(Status st)
      : std::runtime_error(std::string("request failed: ") +
                           status_name(st)),
        status_(st) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

class Client {
 public:
  Client(const std::string& host, std::uint16_t port,
         std::size_t max_frame = kDefaultMaxFrame)
      : max_frame_(max_frame) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::system_error(errno, std::generic_category(),
                                         "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd_);
      throw NetError("bad host: " + host);
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const int saved = errno;
      ::close(fd_);
      throw std::system_error(saved, std::generic_category(), "connect");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Client(Client&& o) noexcept
      : fd_(o.fd_), next_id_(o.next_id_), max_frame_(o.max_frame_) {
    o.fd_ = -1;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client& operator=(Client&&) = delete;

  // ---- synchronous ops (one round trip each) -----------------------------

  std::optional<Val> get(Key k) {
    return value_of(roundtrip(make(Verb::kGet, k)));
  }
  /// Returns the previous value (nullopt = fresh key).
  std::optional<Val> put(Key k, Val v) {
    return value_of(roundtrip(make(Verb::kPut, k, v)));
  }
  /// Returns the removed value (nullopt = key was absent).
  std::optional<Val> del(Key k) {
    return value_of(roundtrip(make(Verb::kDel, k)));
  }
  /// value += delta (absent reads as 0); returns the new value.
  Val rmw_add(Key k, Val delta) {
    auto v = value_of(roundtrip(make(Verb::kRmwAdd, k, delta)));
    return v.value_or(0);
  }
  std::vector<std::pair<Key, Val>> range(Key lo, Key hi) {
    Response r = roundtrip(make(Verb::kRange, lo, hi));
    check_ok(r);
    return std::move(r.pairs);
  }
  std::vector<std::pair<Key, Val>> scan(Key lo, std::uint32_t limit) {
    Request rq = make(Verb::kScan, lo);
    rq.limit = limit;
    Response r = roundtrip(rq);
    check_ok(r);
    return std::move(r.pairs);
  }
  void multi_put(const std::vector<std::pair<Key, Val>>& kvs) {
    out_.clear();
    Request rq = make(Verb::kMultiPut);
    encode_request(out_, rq, kvs);
    write_all();
    Response r = read_response();
    check_ok(r);
  }
  StatsBlob stats() {
    Response r = roundtrip(make(Verb::kStats));
    check_ok(r);
    return r.stats;
  }
  /// One METRICS scrape: the server's full Prometheus exposition (store
  /// families + net families when they share a registry).
  std::string metrics() {
    Response r = roundtrip(make(Verb::kMetrics));
    check_ok(r);
    return std::move(r.text);
  }

  // ---- pipelining --------------------------------------------------------

  /// Encode every request, send them with ONE writev, then read the
  /// responses (in request order — the server guarantees it). This is
  /// what makes the server see a multi-request wave: B pipelined
  /// mutations commit with one apply_batch instead of B transactions.
  /// MULTI_PUT requests in a batch are not supported here (their pair
  /// payload lives out-of-band); use multi_put().
  std::vector<Response> send_batch(const std::vector<Request>& reqs) {
    out_.clear();
    for (const Request& rq : reqs) encode_request(out_, rq);
    write_all();
    std::vector<Response> out;
    out.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); i++) {
      out.push_back(read_response());
    }
    return out;
  }

  /// Request builder with an auto-assigned id (echoed in the response).
  Request make(Verb v, Key a = 0, Val b = 0) {
    Request rq;
    rq.verb = v;
    rq.id = next_id_++;
    rq.a = a;
    rq.b = b;
    return rq;
  }

  int fd() const { return fd_; }

 private:
  Response roundtrip(const Request& rq) {
    out_.clear();
    encode_request(out_, rq);
    write_all();
    return read_response();
  }

  static std::optional<Val> value_of(Response r) {
    if (r.status == Status::kNotFound) return std::nullopt;
    if (r.status != Status::kOk) throw RequestError(r.status);
    return r.val;
  }

  static void check_ok(const Response& r) {
    if (r.status != Status::kOk) throw RequestError(r.status);
  }

  void write_all() {
    std::size_t off = 0;
    while (off < out_.size()) {
      iovec iov{out_.data() + off, out_.size() - off};
      const ssize_t n = ::writev(fd_, &iov, 1);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::system_error(errno, std::generic_category(), "writev");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  Response read_response() {
    bool oversize = false;
    for (;;) {
      if (auto f = in_.next(max_frame_, &oversize)) {
        Response r;
        if (!parse_response(*f, r)) {
          throw NetError("unparseable response frame");
        }
        if (in_.buffered() == 0) in_.compact();
        return r;
      }
      if (oversize) throw NetError("oversized response frame");
      std::uint8_t* dst = in_.writable(16384);
      const ssize_t n = ::read(fd_, dst, 16384);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::system_error(errno, std::generic_category(), "read");
      }
      if (n == 0) throw NetError("server closed connection");
      in_.commit(static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::uint32_t next_id_ = 1;
  std::size_t max_frame_;
  std::vector<std::uint8_t> out_;  // reused encode buffer
  FrameBuffer in_;
};

}  // namespace medley::net
