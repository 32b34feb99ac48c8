#pragma once
// Span recorder for the traced run. Spans are recorded only by the
// benchmark's own code, around calls into each layer's public functions:
//
//   wire.*      the client's round trip (wire-read) or 16-request batch
//               (wire-write), tagged with the request id;
//   store.*     server-side store calls, timed by TimedStoreApi (wire.cpp);
//   core.execute one TxExecutor::execute call, tagged with the transaction
//               id; ds.* spans inside it share that id and name it parent.
//
// Every traced call adds to its thread's per-kind sum and count (exact
// self-time arithmetic); only sampled roots keep their spans, in
// per-thread vectors of bounded size, for percentiles and the Chrome
// trace file written at exit.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace medley::benchrec {

enum SpanKind : std::uint8_t {
  kWireGet,
  kWirePut,
  kWireScan,
  kWireBatch,
  kStoreGet,
  kStoreScan,
  kStorePublish,
  kStoreHarvest,
  kStoreRmw,
  kCoreExecute,
  kDsGet,
  kDsInsert,
  kDsRemove,
  kSpanKinds
};

inline constexpr const char* kSpanName[kSpanKinds] = {
    "wire.get",      "wire.put",      "wire.scan",  "wire.batch",
    "store.get",     "store.scan",    "store.publish", "store.harvest",
    "store.rmw_add", "core.execute",  "ds.get",     "ds.insert",
    "ds.remove"};

inline constexpr std::uint8_t kNoParent = 0xff;

struct Span {
  std::uint64_t start;   // ns, steady clock
  std::uint64_t end;
  std::uint64_t id;      // request id (wire) or transaction id (txn)
  std::uint8_t kind;
  std::uint8_t parent;   // kind of the enclosing span with the same id
};

class Tracer {
 public:
  struct Thread {
    int tid = 0;
    std::vector<Span> spans;
    std::uint64_t sum_ns[kSpanKinds] = {};
    std::uint64_t count[kSpanKinds] = {};
    std::uint64_t dropped = 0;
  };

  /// One workload runs per process, so one tracer serves it.
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  /// The calling thread's buffer (registered on first use).
  Thread& mine() {
    thread_local Thread* t = nullptr;
    if (t == nullptr) {
      std::lock_guard<std::mutex> g(mu_);
      threads_.push_back(std::make_unique<Thread>());
      t = threads_.back().get();
      t->tid = static_cast<int>(threads_.size());
      t->spans.reserve(kCapPerThread);
    }
    return *t;
  }

  /// Account one traced call; keep its span when its root was sampled.
  void record(SpanKind kind, std::uint64_t start, std::uint64_t end,
              std::uint64_t id, std::uint8_t parent, bool keep) {
    Thread& t = mine();
    t.sum_ns[kind] += end - start;
    t.count[kind]++;
    if (!keep) return;
    if (t.spans.size() == kCapPerThread) {
      t.dropped++;
      return;
    }
    t.spans.push_back({start, end, id, static_cast<std::uint8_t>(kind),
                       parent});
  }

  // ---- after the run (all recording threads joined) ----------------------

  std::uint64_t sum_ns(SpanKind k) const {
    std::uint64_t s = 0;
    for (const auto& t : threads_) s += t->sum_ns[k];
    return s;
  }
  std::uint64_t count(SpanKind k) const {
    std::uint64_t s = 0;
    for (const auto& t : threads_) s += t->count[k];
    return s;
  }
  /// Durations (ns) of the kept spans of one kind.
  std::vector<std::uint64_t> durations(SpanKind k) const {
    std::vector<std::uint64_t> out;
    for (const auto& t : threads_) {
      for (const Span& s : t->spans) {
        if (s.kind == k) out.push_back(s.end - s.start);
      }
    }
    return out;
  }
  std::uint64_t kept() const {
    std::uint64_t n = 0;
    for (const auto& t : threads_) n += t->spans.size();
    return n;
  }
  std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const auto& t : threads_) n += t->dropped;
    return n;
  }

  /// Chrome trace format ("X" complete events, microseconds), at most
  /// `max_events` spans split evenly over the recording threads.
  bool write_chrome(const std::string& path, std::size_t max_events) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::uint64_t origin = ~std::uint64_t{0};
    for (const auto& t : threads_) {
      if (!t->spans.empty()) origin = std::min(origin, t->spans[0].start);
    }
    const std::size_t per_thread =
        threads_.empty() ? 0 : max_events / threads_.size();
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    bool first = true;
    for (const auto& t : threads_) {
      const std::size_t n = std::min(per_thread, t->spans.size());
      for (std::size_t i = 0; i < n; i++) {
        const Span& s = t->spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":\"%s\"}}",
                     first ? "" : ",", kSpanName[s.kind], t->tid,
                     static_cast<double>(s.start - origin) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     s.parent == kNoParent ? "" : kSpanName[s.parent]);
        first = false;
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::size_t kCapPerThread = 1u << 18;

  std::mutex mu_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

}  // namespace medley::benchrec
