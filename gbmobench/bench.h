// Shared pieces of the gbmo benchmark program: run options, the result that
// becomes the last line of standard output, and small host helpers.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace gbmobench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU seconds this process has run, all threads together. Unlike
// wall-clock it leaves out the time the hypervisor gives the vCPU to other
// guests (steal time), on a kernel that accounts it
// (CONFIG_PARAVIRT_TIME_ACCOUNTING). The measured operations run on one
// simulator thread, so on a quiet host the two agree.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Simulator host threads of all measured work. With one thread per launch
// on a 4-vCPU VM under hypervisor contention, fit() times stay within about
// 5% of each other while 4-thread fits of the same inputs range over 2-10 s,
// so the measured runs use one; the library default (nproc) still runs in
// train-dense's correctness gate and in the traced sim.thread_speedup.
constexpr int kSimThreads = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   // length of the measured phase
  bool trace = false;      // per-layer run instead of the end-to-end run
  std::string trace_out;   // where the traced run writes its spans ("" = nowhere)
  int nproc = 1;           // the library's default simulator threads
};

// Collects metrics and correctness outcomes and prints them as the single
// JSON object the benchmark ends with. Human-readable lines go to stdout
// before it, so the object is always the last line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  // A per-layer metric; its unit comes from per_layer_metrics(), and a name
  // missing there is a programming error (throws std::logic_error).
  void layer(const std::string& name, double value);

  // One operation attempted; `ok` false counts it as failed.
  void op(bool ok = true) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  // A correctness gate: one operation whose failure makes the run incorrect.
  bool check(bool ok, const std::string& what) {
    op(ok);
    std::printf("check %-48s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct_ = false;
    return ok;
  }
  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  std::string json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// Peak resident set size of this process, MB (getrusage).
double peak_rss_mb();

// CPU seconds of one pass of the host probe: a fixed single-threaded
// histogram scatter-add (16k rows x 16 columns x 8 outputs into 64 bins,
// about 1.3 MB touched, 16 times), the kind of work that dominates a fit on
// the host. It takes 15-30 ms.
//
// The end-to-end op_cpu_per_probe is the median over a run of each
// operation's CPU seconds divided by the mean of the probe passes run just
// before and just after it. On a shared 4-vCPU VM the same deterministic fit
// took 1.1 s in one run and 1.9 s in another, every sample of a run slowed
// alike while neighbours loaded the host for minutes at a time, and the
// median CPU seconds spread 0.31 over ten seeds; the probe slows with them,
// and the ratio spread 0.05 over five seeds of the same host. The probe is
// benchmark code that no change to the program touches, so a change that
// makes an operation faster moves the ratio by the same factor.
double probe_cpu_seconds();

// Prints the operations' CPU seconds against the probe passes and returns
// op_cpu_per_probe. `probe_cpu_s` holds one pass before each operation and
// one after the last.
double print_probe(const std::vector<double>& op_cpu_s,
                   const std::vector<double>& probe_cpu_s);

// Workload entry points (train_workloads.cpp / infer_workload.cpp). Each
// fills `out` with the metrics of its mode and its correctness outcomes.
bool is_train_workload(const std::string& name);
void run_train(const Options& opt, Result& out);
void run_infer(const Options& opt, Result& out);

// Every per-layer metric, in BENCHMARK.json's order. A workload sets the ones
// its layers produce; the rest read 0 on that workload (layer not exercised).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace gbmobench
