#pragma once
// Shared pieces of the benchmark of record (bench_medley.cpp): run options,
// the per-workload result block, the measurement timeline that every
// workload's main thread drives, and exact-sample percentile helpers.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace medley::benchrec {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;        // measured time per workload
  bool trace = false;         // per-layer run: untraced half + traced half
  bool ledger = false;        // single-thread per-boundary price list
  bool smoke = false;         // 1 s per workload, 10k keys
  std::string out = ".";      // trace files, persistent region
  std::string json;           // run JSON path (host facts + results)
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Warm-up before the measured windows, in seconds.
inline double warmup_s(const Options& opt) { return opt.smoke ? 0.2 : 2.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload reports: correctness, the attempted/failed census
/// (error_rate = failed / attempted), and its metrics in print order.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::vector<std::string> notes;  // printed as "# " lines

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 16) errors.push_back(why);
  }
};

/// Phases every worker thread reads once per iteration. Latency samples
/// are taken only in kMeasure; spans only in kTraced.
enum Phase : int { kWarm = 0, kMeasure = 1, kTraced = 2, kStop = 3 };

/// Per-thread completion counter, padded so counting never shares a line.
struct alignas(64) DoneCounter {
  std::atomic<std::uint64_t> n{0};
  void bump(std::uint64_t k = 1) {
    n.store(n.load(std::memory_order_relaxed) + k, std::memory_order_relaxed);
  }
};

inline std::uint64_t total(const std::vector<DoneCounter>& cs) {
  std::uint64_t t = 0;
  for (const auto& c : cs) t += c.n.load(std::memory_order_relaxed);
  return t;
}

/// Per-window completion rates of the measured phases.
struct Timeline {
  std::vector<double> plain;   // kMeasure windows, completions/s
  std::vector<double> traced;  // kTraced windows (trace runs only)
  double measured_s = 0;
  double cpu_s = 0;            // process CPU time over the measured windows

  std::string describe() const {
    std::string s = "windows (1/s):";
    char buf[32];
    for (double r : plain) {
      std::snprintf(buf, sizeof(buf), " %.0f", r);
      s += buf;
    }
    if (!traced.empty()) s += " | traced:";
    for (double r : traced) {
      std::snprintf(buf, sizeof(buf), " %.0f", r);
      s += buf;
    }
    std::snprintf(buf, sizeof(buf), " | cpu/wall %.2f", cpu_s / measured_s);
    s += buf;
    return s;
  }
};

inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// The main thread's loop: warm up, then measure in ten windows (a trace
/// run spends five untraced and five traced), calling `tick` every
/// `tick_ms` throughout. Sets kStop at the end; the caller joins.
inline Timeline drive(const Options& opt, std::atomic<int>& phase,
                      const std::function<std::uint64_t()>& done,
                      double tick_ms, const std::function<void()>& tick) {
  Timeline tl;
  const auto tick_d = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(tick_ms));
  auto run_until = [&](Clock::time_point end) {
    while (Clock::now() < end) {
      std::this_thread::sleep_for(tick_d);
      if (tick) tick();
    }
  };
  run_until(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(warmup_s(opt))));
  const int windows = 10;
  const double win_s = opt.seconds / windows;
  const auto t_start = Clock::now();
  const double cpu0 = process_cpu_s();
  for (int w = 0; w < windows; w++) {
    const bool traced = opt.trace && w >= windows / 2;
    phase.store(traced ? kTraced : kMeasure, std::memory_order_release);
    const std::uint64_t d0 = done();
    const auto t0 = Clock::now();
    run_until(t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(win_s)));
    const double el = std::chrono::duration<double>(Clock::now() - t0).count();
    const double rate = static_cast<double>(done() - d0) / el;
    (traced ? tl.traced : tl.plain).push_back(rate);
  }
  tl.measured_s =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  tl.cpu_s = process_cpu_s() - cpu0;
  phase.store(kStop, std::memory_order_release);
  return tl;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an exact sample (sorted in place).
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))),
      1, v.size());
  return static_cast<double>(v[rank - 1]);
}

/// Latency samples (ns) of one thread. The buffer is sized and touched
/// before the run, so peak_rss_mb does not move with the sample count;
/// samples beyond its room (`per_s` a second) are dropped.
struct LatencySamples {
  std::vector<std::uint32_t> buf;
  std::size_t n = 0;

  void prepare(const Options& opt, double per_s) {
    buf.assign(static_cast<std::size_t>((opt.seconds + 1) * per_s), 0);
    n = 0;
  }
  void add(std::uint64_t ns) {
    if (n < buf.size()) {
      buf[n++] = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          ns, UINT32_MAX));
    }
  }
};

/// Adds lat_p50_us / lat_p99_us from the merged per-thread samples, and a
/// note with the sample count. The p99 needs at least ten samples beyond
/// it; fewer is a failed run.
inline void add_latency(Result& r,
                        const std::vector<LatencySamples>& per_thread) {
  std::vector<std::uint32_t> all;
  for (const auto& v : per_thread) {
    all.insert(all.end(), v.buf.begin(), v.buf.begin() + v.n);
  }
  const std::size_t n = all.size();
  if (static_cast<double>(n) * 0.01 < 10) {
    r.fail("too few latency samples for p99: " + std::to_string(n));
  }
  r.add("lat_p50_us", quantile(all, 0.50) / 1e3, "us");
  r.add("lat_p99_us", quantile(all, 0.99) / 1e3, "us");
  r.notes.push_back("latency samples: " + std::to_string(n) + " (" +
                    std::to_string(n / 100) + " beyond p99)");
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Runs `build` kSetups times, tearing down all but the last result, and
/// returns the median wall time of one set-up in seconds.
template <typename T, typename Build>
double timed_setups(std::unique_ptr<T>& keep, Build&& build) {
  std::vector<double> times;
  for (int i = 0; i < kSetups; i++) {
    keep.reset();
    const auto t0 = Clock::now();
    keep = build();
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(times);
}

/// Pins the calling thread to one CPU (modulo the CPUs online). Threads
/// inherit the mask of the thread that creates them, which is how the
/// server's epoll worker gets its CPU. Left to the scheduler, a woken
/// thread is sometimes pulled onto its waker's CPU, serializing client
/// and server: wire-write then ran at cpu/wall 1.0 with twice the p99 of
/// a run whose threads stayed apart, flipping between the two for
/// minutes at a time.
inline void pin_to(int cpu) {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % (n > 0 ? n : 1)), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Stream `stream` of a run's seed (per-thread generators are split from
/// --seed with splitmix, so one seed fixes every input of the run).
inline std::uint64_t split_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (stream * 0x632be59bd9b4e019ULL);
  return util::splitmix64(s);
}

// Workload entry points (one translation unit each).
Result run_wire(const Options& opt, bool write_mix);
Result run_txn(const Options& opt, bool durable);
void run_ledger(const Options& opt, Result& r);

}  // namespace medley::benchrec
