// gbmobench: one command for the gbmo benchmark.
//
//   gbmobench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Workloads: train-dense, train-paged, train-sharded (GbmoBooster::fit) and
// infer-mixed (compiled engine + ModelServer under open-loop load). The
// program generates its inputs from --seed, measures for --seconds, checks
// every output, and prints one JSON object as the last line of stdout:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. It exits 1 when a correctness check fails, 2 on bad usage.
#include <sys/resource.h>

#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <sstream>
#include <string>

#include "bench.h"
#include "sim/scheduler.h"
#include "stats.h"

namespace gbmobench {

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void Result::layer(const std::string& name, double value) {
  for (const auto& [known, unit] : per_layer_metrics()) {
    if (known == name) {
      metric(name, value, unit);
      return;
    }
  }
  throw std::logic_error("unlisted per-layer metric " + name);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double probe_cpu_seconds() {
  constexpr std::size_t kRows = 16384, kCols = 16, kOutputs = 8, kBins = 64;
  constexpr int kPasses = 16;
  struct Data {
    std::vector<std::uint8_t> bins;
    std::vector<double> grad;
    std::vector<double> hist;
  };
  static Data d = [] {
    Data init;
    init.bins.resize(kRows * kCols);
    init.grad.resize(kRows * kOutputs);
    init.hist.assign(kCols * kBins * kOutputs, 0.0);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // xorshift64
    for (auto& b : init.bins) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<std::uint8_t>(x % kBins);
    }
    for (std::size_t i = 0; i < init.grad.size(); ++i) {
      init.grad[i] = static_cast<double>(i % 97) * 0.01 - 0.48;
    }
    return init;
  }();
  const double c0 = process_cpu_seconds();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t r = 0; r < kRows; ++r) {
      const double* g = &d.grad[r * kOutputs];
      for (std::size_t c = 0; c < kCols; ++c) {
        double* h = &d.hist[(c * kBins + d.bins[r * kCols + c]) * kOutputs];
        for (std::size_t k = 0; k < kOutputs; ++k) h[k] += g[k];
      }
    }
  }
  const double cpu_s = process_cpu_seconds() - c0;
  // The sums stay reachable through `d`, so the loop cannot be dropped.
  if (!(d.hist[0] == d.hist[0])) std::abort();
  return cpu_s;
}

double print_probe(const std::vector<double>& op_cpu_s,
                   const std::vector<double>& probe_cpu_s) {
  if (probe_cpu_s.size() != op_cpu_s.size() + 1) {
    throw std::logic_error("one probe pass before each operation and after the last");
  }
  std::vector<double> ratio;
  for (std::size_t i = 0; i < op_cpu_s.size(); ++i) {
    ratio.push_back(op_cpu_s[i] * 2.0 / (probe_cpu_s[i] + probe_cpu_s[i + 1]));
  }
  const Quartiles p = quartiles(probe_cpu_s);
  const Quartiles r = quartiles(ratio);
  std::printf("probe: cpu quartiles %.3f, %.3f, %.3f ms over %zu passes; op / adjacent "
              "probes: quartiles %.4f, %.4f, %.4f over %zu operations\n", p.q1 * 1e3,
              p.q2 * 1e3, p.q3 * 1e3, probe_cpu_s.size(), r.q1, r.q2, r.q3, ratio.size());
  return r.q2;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"sim.kernel_launches", "count"},
        {"sim.host_us_per_launch", "us"},
        {"sim.thread_speedup", "ratio"},
        {"sim.comm_modeled_s", "s"},
        {"sim.comm_inter_mb", "MB"},
        {"sim.comm_intra_mb", "MB"},
        {"sim.vote_miss_ratio", "ratio"},
    };
    for (const char* phase :
         {"gradient", "histogram", "split", "partition", "leaf", "update"}) {
      m.push_back({std::string("core.") + phase + "_modeled_s", "s"});
    }
    for (const char* phase :
         {"gradient", "histogram", "split", "partition", "leaf", "update"}) {
      m.push_back({std::string("core.") + phase + "_host_s", "s"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"core.hist_atomic_conflict_ratio", "ratio"},
        {"core.hist_gmem_gb", "GB"},
        {"core.tree_host_ms_p50", "ms"},
        {"core.tree_host_ms_p90", "ms"},
        {"data.quantize_host_s", "s"},
        {"data.page_hit_ratio", "ratio"},
        {"data.page_misses", "count"},
        {"data.page_mb", "MB"},
        {"data.page_modeled_s", "s"},
        {"data.page_host_s", "s"},
        {"serve.engine_host_us_per_krow", "us"},
        {"serve.ref_engine_host_us_per_krow", "us"},
        {"serve.engine_host_over_modeled", "ratio"},
        {"serve.batch_rows_mean", "rows"},
        {"serve.batcher_p50_ms", "ms"},
        {"serve.batcher_p99_ms", "ms"},
        {"serve.deploy_ms", "ms"},
        {"serve.request_p50_ms", "ms"},
        {"serve.request_p99_ms", "ms"},
        {"serve.slo_rps", "1/s"},
        {"serve.fail_frac", "ratio"},
        {"serve.generator_late_p99_ms", "ms"},
        {"serve.rejected", "count"},
        {"serve.failed", "count"},
        {"serve.fallbacks", "count"},
        {"serve.mismatches", "count"},
        {"obs.trace_overhead_frac", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

}  // namespace gbmobench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gbmobench: %s\nusage: gbmobench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

gbmobench::Options parse(int argc, char** argv) {
  gbmobench::Options opt;
  opt.nproc = gbmo::sim::default_sim_threads();
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + key).c_str());
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.workload != "infer-mixed" && !gbmobench::is_train_workload(opt.workload)) {
    usage(("unknown workload " + opt.workload).c_str());
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const gbmobench::Options opt = parse(argc, argv);
  gbmo::sim::set_sim_threads(gbmobench::kSimThreads);
  std::printf("workload %s seed %llu seconds %g trace %d sim_threads %d nproc %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, gbmo::sim::sim_threads(), opt.nproc);

  gbmobench::Result result;
  if (opt.trace) {
    // Layers a workload does not exercise read 0 on that workload.
    for (const auto& [name, unit] : gbmobench::per_layer_metrics()) {
      result.metric(name, 0.0, unit);
    }
  }
  try {
    if (opt.workload == "infer-mixed") {
      gbmobench::run_infer(opt, result);
    } else {
      gbmobench::run_train(opt, result);
    }
  } catch (const std::exception& e) {
    // Any error is a failed run: report it and print no result.
    std::fprintf(stderr, "gbmobench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
