#pragma once
// The Medley wire protocol: length-prefixed binary frames carrying store
// operations (ROADMAP "network front-end over the batching substrate").
//
// Every frame is  [u32 length][payload of `length` bytes]  with the length
// covering the payload only. A request payload is
//
//   [u8 verb][u32 req_id][verb-specific body]
//
// and a response payload is
//
//   [u8 verb][u32 req_id][u8 status][verb-specific body]
//
// with req_id echoed verbatim so pipelined clients can match responses
// (responses are also always delivered in request order per connection).
// All integers are little-endian, encoded/decoded through the explicit
// helpers below (the codebase already assumes x86-64 for cmpxchg16b, but
// the wire format should not inherit that silently).
//
// The served instantiation is the u64 -> u64 store the YCSB benches and
// the sharded stores use: keys and values are fixed 8-byte integers, so
// the only variable-length payloads are MULTI_PUT requests, RANGE/SCAN
// responses, and the STATS/METRICS admin bodies — which is exactly why
// frames are length-prefixed rather than fixed-size.
//
// Decoding is incremental and allocation-free on the hot path: a
// FrameBuffer accumulates raw socket bytes (one reusable buffer per
// connection, grown once to the high-water mark and then stable) and
// yields complete frames as views into that buffer; request parsing
// (parse_request) writes into a caller-owned Request struct and never
// allocates — MULTI_PUT pairs stay a pointer/count view into the frame.
// A frame whose header announces more than max_frame bytes is a protocol
// violation the decoder reports distinctly (the stream is unrecoverable —
// the server answers with kTooBig and closes); a complete frame whose
// body does not parse is rejected per-frame with kMalformed and the
// connection continues (frame boundaries are still trustworthy).
//
// This header is freestanding (no sockets): the codec is what
// tests/test_net.cpp round-trips byte-by-byte, and both the server and
// the client build on it.

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace medley::net {

using Key = std::uint64_t;
using Val = std::uint64_t;

/// Frame length prefix is u32; frames larger than this default cap are
/// rejected as a protocol violation (NetConfig can lower it, never raise
/// it past what the u32 prefix can express).
inline constexpr std::size_t kDefaultMaxFrame = 1u << 20;  // 1 MiB

/// Bound on MULTI_PUT pairs in one request: a multi_put is one store
/// transaction, so its writes must clear the descriptor write set the
/// same way kMaxCombinedBatch does (~6 write entries per pair). 64 pairs
/// stays comfortably under Desc::kWriteCap/2.
inline constexpr std::uint32_t kMaxMultiPutPairs = 64;

enum class Verb : std::uint8_t {
  kGet = 1,
  kPut = 2,
  kDel = 3,
  kRmwAdd = 4,    // value += delta (absent key reads as 0); returns the sum
  kRange = 5,     // [lo, hi] inclusive, atomic ordered snapshot
  kScan = 6,      // up to `limit` entries with key >= lo
  kMultiPut = 7,  // all-or-nothing batch upsert
  kStats = 8,     // admin: fixed counter block (StatsBlob)
  kMetrics = 9,   // admin: Prometheus text exposition of the registry
};

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,   // GET/DEL of an absent key (body empty)
  kMalformed = 2,  // body did not parse; this frame is dropped, stream lives
  kTooBig = 3,     // frame or MULTI_PUT over the cap; server closes after
  kAborted = 4,    // the transaction could not commit (bounded policy)
  kBadVerb = 5,    // unknown verb byte
  kShutdown = 6,   // server draining; op was NOT applied
};

inline const char* verb_name(Verb v) {
  switch (v) {
    case Verb::kGet: return "get";
    case Verb::kPut: return "put";
    case Verb::kDel: return "del";
    case Verb::kRmwAdd: return "rmw_add";
    case Verb::kRange: return "range";
    case Verb::kScan: return "scan";
    case Verb::kMultiPut: return "multi_put";
    case Verb::kStats: return "stats";
    case Verb::kMetrics: return "metrics";
  }
  return "?";
}

inline const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not_found";
    case Status::kMalformed: return "malformed";
    case Status::kTooBig: return "too_big";
    case Status::kAborted: return "aborted";
    case Status::kBadVerb: return "bad_verb";
    case Status::kShutdown: return "shutdown";
  }
  return "?";
}

// ---- little-endian scalar codecs -----------------------------------------

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

// ---- incremental frame decoding ------------------------------------------

/// A complete frame's payload, viewed inside a FrameBuffer. Valid until
/// the buffer's next append()/compact().
struct FrameView {
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
};

/// Reusable per-connection receive buffer + frame splitter. Socket reads
/// land directly in the buffer tail (writable()/commit() — no staging
/// copy); next() peels complete frames off the front, tolerating any
/// split of the byte stream (length prefix and payload may arrive one
/// byte at a time). Consumed bytes are reclaimed by compact(), which the
/// owner calls between waves — amortized O(1), no per-frame allocation.
class FrameBuffer {
 public:
  /// Space for a read of up to `n` more bytes; commit(k) after reading k.
  std::uint8_t* writable(std::size_t n) {
    buf_.resize(end_ + n);
    return buf_.data() + end_;
  }
  void commit(std::size_t n) { end_ += n; }

  /// Append from memory (tests and the client's response path).
  void append(const void* p, std::size_t n) {
    std::memcpy(writable(n), p, n);
    commit(n);
  }

  /// The next complete frame, if one is buffered. Sets *oversize (and
  /// returns nullopt) when the buffered length prefix announces a frame
  /// larger than max_frame — the stream cannot be re-synchronized past
  /// it, so the caller must answer kTooBig and close.
  std::optional<FrameView> next(std::size_t max_frame, bool* oversize) {
    *oversize = false;
    if (end_ - rd_ < 4) return std::nullopt;
    const std::size_t len = get_u32(buf_.data() + rd_);
    if (len > max_frame) {
      *oversize = true;
      return std::nullopt;
    }
    if (end_ - rd_ < 4 + len) return std::nullopt;
    FrameView f{buf_.data() + rd_ + 4, len};
    rd_ += 4 + len;
    return f;
  }

  /// Reclaim consumed bytes. Call only when no FrameView is live.
  void compact() {
    if (rd_ == 0) return;
    const std::size_t live = end_ - rd_;
    if (live > 0) std::memmove(buf_.data(), buf_.data() + rd_, live);
    rd_ = 0;
    end_ = live;
  }

  std::size_t buffered() const { return end_ - rd_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t rd_ = 0;   // consumed prefix
  std::size_t end_ = 0;  // valid bytes
};

// ---- requests ------------------------------------------------------------

/// One parsed request. POD-ish and allocation-free: MULTI_PUT pairs stay
/// a view into the frame (pairs/npairs), valid as long as the FrameView
/// is. `a`/`b` carry the verb's scalars:
///   GET/DEL: a=key        PUT: a=key b=val     RMW_ADD: a=key b=delta
///   RANGE:   a=lo b=hi    SCAN: a=lo limit=n   STATS/METRICS: none
struct Request {
  Verb verb = Verb::kGet;
  std::uint32_t id = 0;
  Key a = 0;
  Val b = 0;
  std::uint32_t limit = 0;
  const std::uint8_t* pairs = nullptr;  // MULTI_PUT: npairs × (u64,u64)
  std::uint32_t npairs = 0;

  std::pair<Key, Val> pair(std::uint32_t i) const {
    return {get_u64(pairs + 16 * i), get_u64(pairs + 16 * i + 8)};
  }
};

/// Append one encoded request frame (length prefix included) to `out`.
/// The client's single-op and pipelined paths both build on this; `kvs`
/// is only read for MULTI_PUT.
inline void encode_request(std::vector<std::uint8_t>& out, const Request& rq,
                           const std::vector<std::pair<Key, Val>>& kvs = {}) {
  const std::size_t len_at = out.size();
  put_u32(out, 0);  // patched below
  put_u8(out, static_cast<std::uint8_t>(rq.verb));
  put_u32(out, rq.id);
  switch (rq.verb) {
    case Verb::kGet:
    case Verb::kDel:
      put_u64(out, rq.a);
      break;
    case Verb::kPut:
    case Verb::kRmwAdd:
    case Verb::kRange:
      put_u64(out, rq.a);
      put_u64(out, rq.b);
      break;
    case Verb::kScan:
      put_u64(out, rq.a);
      put_u32(out, rq.limit);
      break;
    case Verb::kMultiPut:
      put_u32(out, static_cast<std::uint32_t>(kvs.size()));
      for (const auto& [k, v] : kvs) {
        put_u64(out, k);
        put_u64(out, v);
      }
      break;
    case Verb::kStats:
    case Verb::kMetrics:
      break;
  }
  const std::uint32_t len =
      static_cast<std::uint32_t>(out.size() - len_at - 4);
  out[len_at] = static_cast<std::uint8_t>(len);
  out[len_at + 1] = static_cast<std::uint8_t>(len >> 8);
  out[len_at + 2] = static_cast<std::uint8_t>(len >> 16);
  out[len_at + 3] = static_cast<std::uint8_t>(len >> 24);
}

/// Parse a request frame into `rq`. Returns kOk, or the typed rejection
/// the server should answer with: kMalformed for a body that does not
/// match its verb (wrong size, truncated pair array — the decoder never
/// reads past f.len), kBadVerb for an unknown verb byte, kTooBig for a
/// MULTI_PUT over kMaxMultiPutPairs. On any non-kOk outcome rq.verb/rq.id
/// hold whatever header bytes were present (id 0 if even those were
/// missing) so the error response can still echo them.
inline Status parse_request(const FrameView& f, Request& rq) {
  rq = Request{};
  if (f.len < 5) return Status::kMalformed;
  const std::uint8_t vb = f.data[0];
  rq.id = get_u32(f.data + 1);
  if (vb < 1 || vb > 9) return Status::kBadVerb;
  rq.verb = static_cast<Verb>(vb);
  const std::uint8_t* body = f.data + 5;
  const std::size_t blen = f.len - 5;
  switch (rq.verb) {
    case Verb::kGet:
    case Verb::kDel:
      if (blen != 8) return Status::kMalformed;
      rq.a = get_u64(body);
      return Status::kOk;
    case Verb::kPut:
    case Verb::kRmwAdd:
    case Verb::kRange:
      if (blen != 16) return Status::kMalformed;
      rq.a = get_u64(body);
      rq.b = get_u64(body + 8);
      return Status::kOk;
    case Verb::kScan:
      if (blen != 12) return Status::kMalformed;
      rq.a = get_u64(body);
      rq.limit = get_u32(body + 8);
      return Status::kOk;
    case Verb::kMultiPut: {
      if (blen < 4) return Status::kMalformed;
      rq.npairs = get_u32(body);
      if (rq.npairs > kMaxMultiPutPairs) return Status::kTooBig;
      if (blen != 4 + std::size_t{16} * rq.npairs) return Status::kMalformed;
      rq.pairs = body + 4;
      return Status::kOk;
    }
    case Verb::kStats:
    case Verb::kMetrics:
      if (blen != 0) return Status::kMalformed;
      return Status::kOk;
  }
  return Status::kBadVerb;
}

// ---- responses -----------------------------------------------------------

/// The STATS verb's fixed counter block — enough for a load driver or an
/// operator probe to see commits, contention, and group-commit batching
/// without parsing the full METRICS exposition.
struct StatsBlob {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t keys = 0;
  std::uint64_t feed_depth = 0;
  std::uint64_t combined_batches = 0;
  std::uint64_t combined_ops = 0;
};
inline constexpr std::size_t kStatsBlobWire = 6 * 8;

/// One parsed response, decoded by the client. `val` is engaged for OK
/// GET/PUT/DEL/RMW_ADD bodies that carry a value (PUT/DEL: the previous
/// value — absent means the key was fresh/missing); `pairs` carries
/// RANGE/SCAN rows; `text` the METRICS exposition; `stats` the STATS
/// block.
struct Response {
  Verb verb = Verb::kGet;
  std::uint32_t id = 0;
  Status status = Status::kOk;
  std::optional<Val> val;
  std::vector<std::pair<Key, Val>> pairs;
  std::string text;
  StatsBlob stats;
};

namespace detail {
/// Open a response frame; returns the length-prefix offset for patching.
inline std::size_t begin_response(std::vector<std::uint8_t>& out, Verb v,
                                  std::uint32_t id, Status st) {
  const std::size_t len_at = out.size();
  put_u32(out, 0);
  put_u8(out, static_cast<std::uint8_t>(v));
  put_u32(out, id);
  put_u8(out, static_cast<std::uint8_t>(st));
  return len_at;
}
inline void end_response(std::vector<std::uint8_t>& out, std::size_t len_at) {
  const std::uint32_t len =
      static_cast<std::uint32_t>(out.size() - len_at - 4);
  out[len_at] = static_cast<std::uint8_t>(len);
  out[len_at + 1] = static_cast<std::uint8_t>(len >> 8);
  out[len_at + 2] = static_cast<std::uint8_t>(len >> 16);
  out[len_at + 3] = static_cast<std::uint8_t>(len >> 24);
}
}  // namespace detail

/// Error / empty-bodied response (also used for OK MULTI_PUT acks).
inline void encode_status(std::vector<std::uint8_t>& out, Verb v,
                          std::uint32_t id, Status st) {
  detail::end_response(out, detail::begin_response(out, v, id, st));
}

/// GET/PUT/DEL/RMW_ADD result: kOk with [u8 has][u64 val?]; a GET/DEL of
/// an absent key is kNotFound with an empty body (the idiomatic miss).
inline void encode_value(std::vector<std::uint8_t>& out, Verb v,
                         std::uint32_t id, const std::optional<Val>& val) {
  if (!val && (v == Verb::kGet || v == Verb::kDel)) {
    encode_status(out, v, id, Status::kNotFound);
    return;
  }
  const std::size_t at = detail::begin_response(out, v, id, Status::kOk);
  put_u8(out, val ? 1 : 0);
  if (val) put_u64(out, *val);
  detail::end_response(out, at);
}

inline void encode_pairs(std::vector<std::uint8_t>& out, Verb v,
                         std::uint32_t id,
                         const std::vector<std::pair<Key, Val>>& kvs) {
  const std::size_t at = detail::begin_response(out, v, id, Status::kOk);
  put_u32(out, static_cast<std::uint32_t>(kvs.size()));
  for (const auto& [k, val] : kvs) {
    put_u64(out, k);
    put_u64(out, val);
  }
  detail::end_response(out, at);
}

inline void encode_stats(std::vector<std::uint8_t>& out, std::uint32_t id,
                         const StatsBlob& s) {
  const std::size_t at =
      detail::begin_response(out, Verb::kStats, id, Status::kOk);
  put_u64(out, s.commits);
  put_u64(out, s.aborts);
  put_u64(out, s.keys);
  put_u64(out, s.feed_depth);
  put_u64(out, s.combined_batches);
  put_u64(out, s.combined_ops);
  detail::end_response(out, at);
}

inline void encode_text(std::vector<std::uint8_t>& out, std::uint32_t id,
                        const std::string& text) {
  const std::size_t at =
      detail::begin_response(out, Verb::kMetrics, id, Status::kOk);
  out.insert(out.end(), text.begin(), text.end());
  detail::end_response(out, at);
}

/// Parse a response frame. Returns false for a frame that does not parse
/// (a broken server — clients treat it as fatal).
inline bool parse_response(const FrameView& f, Response& r) {
  r = Response{};
  if (f.len < 6) return false;
  const std::uint8_t vb = f.data[0];
  if (vb < 1 || vb > 9) return false;
  r.verb = static_cast<Verb>(vb);
  r.id = get_u32(f.data + 1);
  const std::uint8_t sb = f.data[5];
  if (sb > static_cast<std::uint8_t>(Status::kShutdown)) return false;
  r.status = static_cast<Status>(sb);
  const std::uint8_t* body = f.data + 6;
  const std::size_t blen = f.len - 6;
  if (r.status != Status::kOk) return blen == 0;
  switch (r.verb) {
    case Verb::kGet:
    case Verb::kPut:
    case Verb::kDel:
    case Verb::kRmwAdd: {
      if (blen < 1) return false;
      const bool has = body[0] != 0;
      if (blen != (has ? std::size_t{9} : std::size_t{1})) return false;
      if (has) r.val = get_u64(body + 1);
      return true;
    }
    case Verb::kRange:
    case Verb::kScan: {
      if (blen < 4) return false;
      const std::uint32_t n = get_u32(body);
      if (blen != 4 + std::size_t{16} * n) return false;
      r.pairs.reserve(n);
      for (std::uint32_t i = 0; i < n; i++) {
        r.pairs.emplace_back(get_u64(body + 4 + 16 * i),
                             get_u64(body + 4 + 16 * i + 8));
      }
      return true;
    }
    case Verb::kMultiPut:
      return blen == 0;
    case Verb::kStats:
      if (blen != kStatsBlobWire) return false;
      r.stats.commits = get_u64(body);
      r.stats.aborts = get_u64(body + 8);
      r.stats.keys = get_u64(body + 16);
      r.stats.feed_depth = get_u64(body + 24);
      r.stats.combined_batches = get_u64(body + 32);
      r.stats.combined_ops = get_u64(body + 40);
      return true;
    case Verb::kMetrics:
      r.text.assign(reinterpret_cast<const char*>(body), blen);
      return true;
  }
  return false;
}

}  // namespace medley::net
