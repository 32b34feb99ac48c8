// bench_medley: one workload of the repository's benchmark of record.
// run.py builds it and runs each workload in its own process.
//
//   bench_medley --workload W [--seed N] [--seconds S] [--trace [--ledger]]
//                [--smoke] [--out DIR] [--json FILE]
//
// Workloads: wire-write, wire-read (wire.cpp), txn-hash, txn-durable
// (txn.cpp). A workload sets up kSetups times, warms up, measures for
// --seconds (10), and runs its correctness checks. An untraced run prints
// the end-to-end metrics; a traced run (--trace) measures half the time
// untraced and half traced, prints the per-layer metrics, including
// trace.overhead_frac, and writes <out>/trace-<workload>.json (Chrome trace
// format). --ledger adds the layer-cost ledger to a traced run. Every
// metric is printed as one "workload metric value unit" line, and the
// output ends with one JSON line {"correct","attempted","failed","metrics"}.
// --json FILE also writes that result with the host facts. --out DIR holds
// traces and the persistent region (default "."). --smoke runs 1 s on 10k
// keys. Any failed check exits 1.

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace mb = medley::benchrec;

namespace {

/// Every per-layer metric a traced run prints. A layer the workload does
/// not exercise did no work in it and reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"net.self_us_per_req", "us"},
    {"net.frames_per_wave", "count"},
    {"net.worker_store_frac", "ratio"},
    {"store.get_ns_p50", "ns"},
    {"store.get_ns_p99", "ns"},
    {"store.scan_ns_p50", "ns"},
    {"store.scan_ns_p99", "ns"},
    {"store.publish_ns_p50", "ns"},
    {"store.harvest_ns_p50", "ns"},
    {"store.harvest_ns_p99", "ns"},
    {"store.aborts_per_commit", "ratio"},
    {"store.retries_per_commit", "ratio"},
    {"store.feed_depth_max", "count"},
    {"core.ops_per_batch", "ratio"},
    {"core.execute_ns_p50", "ns"},
    {"core.execute_ns_p99", "ns"},
    {"core.self_ns_per_txn", "ns"},
    {"core.aborts_per_txn.conflict", "ratio"},
    {"core.aborts_per_txn.validation", "ratio"},
    {"core.aborts_per_txn.capacity", "ratio"},
    {"ds.get_ns_p50", "ns"},
    {"ds.insert_ns_p50", "ns"},
    {"ds.remove_ns_p50", "ns"},
    {"montage.advance_ms_p50", "ms"},
    {"montage.advance_ms_p99", "ms"},
    {"montage.advances_per_s", "1/s"},
    {"montage.recover_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_json(const mb::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); i++) {
    const mb::Metric& m = r.metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t at = line.find(':');
      if (at != std::string::npos) return line.substr(at + 2);
    }
  }
  return "unknown";
}

std::string host_json(const mb::Options& opt) {
  std::string cpu = cpu_model();
  for (char& ch : cpu) {
    if (ch == '"' || ch == '\\') ch = ' ';
  }
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + cpu + "\", \"build_type\": \"" MEDLEY_BUILD_TYPE
         "\", \"compiler\": \"" MEDLEY_COMPILER
         "\", \"git_commit\": \"" MEDLEY_GIT_COMMIT "\", \"started_unix\": " +
         std::to_string(std::time(nullptr)) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"seconds\": " + num(opt.seconds) +
         ", \"smoke\": " + (opt.smoke ? "true" : "false") +
         ", \"trace\": " + (opt.trace ? "true" : "false") + "}";
}

/// The run JSON compare.py reads: host facts + this workload's result.
void write_run_json(const mb::Options& opt, const std::string& result) {
  std::ofstream out(opt.json);
  out << "{\"host\": " << host_json(opt) << ",\n \"workloads\": {\n  \""
      << opt.workload << "\": " << result << "}}\n";
  if (!out) std::fprintf(stderr, "cannot write %s\n", opt.json.c_str());
}

int run(const mb::Options& opt) {
  mb::Result r;
  const std::string& w = opt.workload;
  if (w == "wire-write" || w == "wire-read") {
    r = mb::run_wire(opt, w == "wire-write");
  } else {
    r = mb::run_txn(opt, w == "txn-durable");
  }
  if (opt.trace) {
    // Every per-layer metric, in one order, whatever the workload touched.
    std::vector<mb::Metric> layer;
    for (const LayerMetric& lm : kLayerMetrics) {
      double v = 0;
      for (const mb::Metric& m : r.metrics) {
        if (m.name == lm.name) v = m.value;
      }
      layer.push_back({lm.name, v, lm.unit});
    }
    r.metrics = std::move(layer);
    const mb::Tracer& tr = mb::Tracer::get();
    const std::string path = opt.out + "/trace-" + w + ".json";
    if (!tr.write_chrome(path, 50'000)) r.fail("cannot write " + path);
    std::printf("# %s: %llu spans kept (%llu dropped), trace in %s\n",
                w.c_str(), static_cast<unsigned long long>(tr.kept()),
                static_cast<unsigned long long>(tr.dropped()), path.c_str());
  }
  if (opt.ledger) mb::run_ledger(opt, r);

  for (const mb::Metric& m : r.metrics) {
    std::printf("%s %s %.6g %s\n", w.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& n : r.notes) {
    std::printf("# %s %s\n", w.c_str(), n.c_str());
  }
  for (const std::string& e : r.errors) {
    std::printf("# %s CHECK FAILED: %s\n", w.c_str(), e.c_str());
  }
  std::printf("# %s correct=%s attempted=%llu failed=%llu\n", w.c_str(),
              r.correct ? "yes" : "NO",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const std::string json = result_json(r);
  if (!opt.json.empty()) write_run_json(opt, json);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_medley: %s\nusage: bench_medley --workload "
               "wire-write|wire-read|txn-hash|txn-durable [--seed N] "
               "[--seconds S] [--out DIR] [--json FILE] [--trace [--ledger]] "
               "[--smoke]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  mb::Options opt;
  bool seconds_set = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(value().c_str());
      seconds_set = true;
    } else if (a == "--out") {
      opt.out = value();
    } else if (a == "--json") {
      opt.json = value();
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--ledger") {
      opt.ledger = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  const std::string& w = opt.workload;
  if (w != "wire-write" && w != "wire-read" && w != "txn-hash" &&
      w != "txn-durable") {
    usage(w.empty() ? "--workload is required"
                    : ("unknown workload " + w).c_str());
  }
  if (opt.ledger && !opt.trace) usage("--ledger is part of a --trace run");
  if (opt.smoke && !seconds_set) opt.seconds = 1;
  if (opt.seconds <= 0) usage("--seconds must be > 0");
  return run(opt);
}
