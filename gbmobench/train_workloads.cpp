// The three training workloads: GbmoBooster::fit on fixed shapes.
//
//   train-dense    the reference run: in-core, one device, level-wise; the
//                  histogram phase dominates and nothing pages, communicates
//                  or serves.
//   train-paged    the same grower over the out-of-core data path, with a
//                  device budget of half the paged footprint.
//   train-sharded  2 nodes x 2 GPUs, voting-parallel, leaf-wise growth: the
//                  only workload that runs the collectives.
//
// End-to-end run: fit() repeated until --seconds have passed, with a pass
// of the host probe before each fit and after the last (bench.h). Traced run:
// untraced and traced fits alternate, so the tracing overhead is measured
// on the same inputs, and the per-layer numbers come from the traced fits.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/booster.h"
#include "data/paged_dataset.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace gbmobench {
namespace {

using gbmo::core::GrowthPolicy;
using gbmo::core::MultiGpuMode;
using gbmo::core::TrainConfig;

// Minimum fits per run when --seconds runs out first (a slow host).
constexpr int kMinFits = 3;
constexpr int kMinTreeSpans = 100;  // their p90 has 10 beyond
constexpr int kMinUntracedFits = 2;
constexpr int kSetups = 10;

struct TrainShape {
  std::string name;
  bool multiclass = false;
  std::size_t rows = 0;
  std::size_t holdout = 0;
  std::size_t features = 0;
  int outputs = 0;
  int trees = 20;  // 10 on paged and sharded: twice the fits per run
  int depth = 0;
  int bins = 64;
  GrowthPolicy growth = GrowthPolicy::kLevelWise;
  int max_leaves = 0;
  int nodes = 1;
  int devices = 1;
  MultiGpuMode mode = MultiGpuMode::kFeatureParallel;
  bool paged = false;  // stream chunk = rows/16, budget = 1/2 of the footprint
};

const std::vector<TrainShape>& shapes() {
  static const std::vector<TrainShape> all = [] {
    TrainShape dense;
    dense.name = "train-dense";
    dense.multiclass = true;
    dense.rows = 20000;
    dense.holdout = 20000;
    dense.features = 50;
    dense.outputs = 10;
    dense.depth = 7;

    TrainShape paged;
    paged.name = "train-paged";
    paged.rows = 40000;
    paged.holdout = 20000;
    paged.features = 24;
    paged.outputs = 8;
    paged.depth = 6;
    paged.trees = 10;
    paged.paged = true;

    TrainShape sharded;
    sharded.name = "train-sharded";
    sharded.rows = 20000;
    sharded.holdout = 20000;
    sharded.features = 32;
    sharded.outputs = 8;
    sharded.depth = 6;
    sharded.trees = 10;
    sharded.growth = GrowthPolicy::kLeafWise;
    sharded.max_leaves = 31;
    sharded.nodes = 2;
    sharded.devices = 4;
    sharded.mode = MultiGpuMode::kVotingParallel;
    return std::vector<TrainShape>{dense, paged, sharded};
  }();
  return all;
}

const TrainShape& shape_of(const std::string& name) {
  for (const auto& s : shapes()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown training workload " + name);
}

struct TrainInputs {
  Split data;
  TrainConfig config;
  std::size_t paged_bytes = 0;  // PagedDataset::total_bytes() (train-paged)
};

// The packed bin matrix fit() builds during its set-up.
gbmo::data::BinnedMatrix packed_bins(const gbmo::data::DenseMatrix& x, int bins) {
  gbmo::data::BinnedMatrix binned(x, gbmo::data::BinCuts::build(x, bins));
  binned.pack();
  return binned;
}

// The population is generated with the generator's fixed default seed;
// --seed chooses which of its rows train, and the rest are held out
// (inputs.h).
TrainInputs make_inputs(const TrainShape& s, const Options& opt) {
  const std::size_t n = s.rows + s.holdout;
  gbmo::data::Dataset population;
  if (s.multiclass) {
    gbmo::data::MulticlassSpec spec;
    spec.n_instances = n;
    spec.n_features = s.features;
    spec.n_classes = s.outputs;
    population = gbmo::data::make_multiclass(spec);
  } else {
    gbmo::data::MultiregressionSpec spec;
    spec.n_instances = n;
    spec.n_features = s.features;
    spec.n_outputs = s.outputs;
    population = gbmo::data::make_multiregression(spec);
  }
  TrainInputs in;
  in.data = seeded_split(population, s.rows, opt.seed);
  in.config = TrainConfig::defaults()
                  .trees(s.trees)
                  .depth(s.depth)
                  .bins(s.bins)
                  .growth_policy(s.growth)
                  .leaves(s.max_leaves)
                  .devices(s.devices, s.mode)
                  .nodes(s.nodes)
                  .host_threads(kSimThreads);
  if (s.paged) {
    const std::size_t chunk = s.rows / 16;
    const auto binned = packed_bins(in.data.train.x, s.bins);
    in.paged_bytes = gbmo::data::PagedDataset(binned, chunk).total_bytes();
    in.config.chunk_rows(static_cast<int>(chunk)).device_budget(in.paged_bytes / 2);
  }
  return in;
}

// The configuration whose model the workload's model must equal bit for bit.
TrainConfig reference_config(const TrainShape& s, const TrainConfig& cfg, int nproc) {
  TrainConfig ref = cfg;
  if (s.paged) {
    ref.chunk_rows(0).device_budget(0);  // in-core
  } else if (s.devices > 1) {
    ref.devices(1).nodes(1);  // one device
  } else {
    ref.host_threads(nproc);  // the library's default thread count
  }
  return ref;
}

const char* reference_label(const TrainShape& s) {
  if (s.paged) return "paged model == in-core model";
  if (s.devices > 1) return "sharded model == 1-device model";
  return "model at nproc threads == model at 1 thread";
}

struct Fit {
  gbmo::core::Model model;
  gbmo::core::TrainReport report;
  double host_s = 0.0;  // wall-clock
  double cpu_s = 0.0;   // process CPU time
};

Fit timed_fit(const TrainConfig& cfg, const gbmo::data::Dataset& train,
              gbmo::sim::StatsSink* sink) {
  gbmo::core::GbmoBooster booster(cfg);
  booster.set_sink(sink);
  Fit f;
  const auto t0 = Clock::now();
  const double c0 = process_cpu_seconds();
  f.model = booster.fit(train);
  f.cpu_s = process_cpu_seconds() - c0;
  f.host_s = seconds_between(t0, Clock::now());
  f.report = booster.report();
  return f;
}

// Compares each fit with the first: identical serialized model and
// bit-identical modeled seconds. Each fit is one operation; a fit that
// differs is a failed one.
class RepeatCheck {
 public:
  void add(const Fit& f, Result& out) {
    const std::string text = model_text(f.model);
    if (first_.empty()) {
      first_ = text;
      modeled_ = f.report.modeled_seconds;
      out.op();
      return;
    }
    const bool ok = text == first_ && f.report.modeled_seconds == modeled_;
    if (!ok) ++differing_;
    ++repeats_;
    out.op(ok);
  }
  const std::string& first_text() const { return first_; }
  void report(Result& out) const {
    out.check(differing_ == 0,
              "model identical across " + std::to_string(repeats_ + 1) + " fits");
  }

 private:
  std::string first_;
  double modeled_ = 0.0;
  int repeats_ = 0;
  int differing_ = 0;
};

void print_shape(const TrainShape& s, const Options& opt, const TrainInputs& in) {
  std::printf("shape %s: %zu train + %zu holdout rows x %zu features x %d %s; "
              "%d trees, depth %d, %d bins, %s%s; %d node(s) x %d device(s)%s\n",
              s.name.c_str(), s.rows, s.holdout, s.features, s.outputs,
              s.multiclass ? "classes" : "outputs", s.trees, s.depth, s.bins,
              gbmo::core::growth_policy_name(s.growth),
              s.max_leaves > 0 ? (", max_leaves " + std::to_string(s.max_leaves)).c_str()
                               : "",
              s.nodes, s.devices / s.nodes,
              s.devices > 1 ? (std::string(", ") +
                               gbmo::core::multi_gpu_mode_name(s.mode)).c_str()
                            : "");
  if (s.paged) {
    std::printf("paging: chunk %d rows, device budget %llu of %zu bytes\n",
                in.config.stream_chunk_rows,
                static_cast<unsigned long long>(in.config.device_budget_bytes),
                in.paged_bytes);
  }
  std::printf("seed %llu, sim threads %d, nproc %d\n",
              static_cast<unsigned long long>(opt.seed), kSimThreads, opt.nproc);
}

void check_reference(const TrainShape& s, const Options& opt, const TrainInputs& in,
                     const std::string& model, Result& out, double* host_s) {
  const Fit ref =
      timed_fit(reference_config(s, in.config, opt.nproc), in.data.train, nullptr);
  if (host_s != nullptr) *host_s = ref.host_s;
  out.check(model_text(ref.model) == model, reference_label(s));
}

void run_end_to_end(const TrainShape& s, const Options& opt, Result& out) {
  std::vector<double> setup_s;
  TrainInputs in;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    in = make_inputs(s, opt);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  print_shape(s, opt, in);

  RepeatCheck repeats;
  std::vector<double> host_s;
  std::vector<double> cpu_s;
  std::vector<double> probe_s{probe_cpu_seconds()};
  std::vector<double> modeled_s;
  double rmse = 0.0;
  std::string primary;
  const auto start = Clock::now();
  do {
    const Fit f = timed_fit(in.config, in.data.train, nullptr);
    probe_s.push_back(probe_cpu_seconds());
    host_s.push_back(f.host_s);
    cpu_s.push_back(f.cpu_s);
    modeled_s.push_back(f.report.modeled_seconds);
    if (host_s.size() == 1) {
      rmse = holdout_rmse(f.model, in.data.holdout);
      const auto eval = f.model.evaluate(in.data.holdout);
      primary = eval.metric + " " + std::to_string(eval.value);
    }
    repeats.add(f, out);
  } while (seconds_between(start, Clock::now()) < opt.seconds ||
           static_cast<int>(host_s.size()) < kMinFits);
  // Before the gate's reference fit, which may run at nproc threads.
  const double rss_mb = peak_rss_mb();
  repeats.report(out);
  check_reference(s, opt, in, repeats.first_text(), out, nullptr);

  const Quartiles q = quartiles(cpu_s);
  const Quartiles w = quartiles(host_s);
  std::printf("fit: cpu quartiles %.4f, %.4f, %.4f s; wall quartiles %.4f, %.4f, "
              "%.4f s; over %zu fits, modeled %.6f s\n", q.q1, q.q2, q.q3, w.q1, w.q2,
              w.q3, cpu_s.size(), median(modeled_s));
  const double op_per_probe = print_probe(cpu_s, probe_s);
  std::printf("holdout rmse %.6f (%s); setup median %.4f s over %d\n", rmse,
              primary.c_str(), median(setup_s), kSetups);

  out.metric("setup_s", median(setup_s), "s");
  out.metric("op_cpu_per_probe", op_per_probe, "ratio");
  out.metric("op_modeled_s", median(modeled_s), "s");
  out.metric("holdout_rmse", rmse, "1");
  out.metric("peak_rss_mb", rss_mb, "MB");
}

double phase(const gbmo::core::TrainReport& r, const std::string& name) {
  const auto it = r.phase_seconds.find(name);
  return it == r.phase_seconds.end() ? 0.0 : it->second;
}

void run_traced(const TrainShape& s, const Options& opt, Result& out) {
  const auto epoch = Clock::now();
  const TrainInputs in = make_inputs(s, opt);
  print_shape(s, opt, in);

  // data: quantization timed directly (cuts, bin matrix, packing).
  std::vector<double> quantize_s;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    packed_bins(in.data.train.x, s.bins);
    quantize_s.push_back(seconds_between(t0, Clock::now()));
  }

  SpanLog log(epoch);
  FitTracer tracer(log);
  RepeatCheck repeats;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<FitLayers> layers;
  gbmo::core::TrainReport report;
  const int min_traced_fits = (kMinTreeSpans + s.trees - 1) / s.trees;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < opt.seconds ||
         static_cast<int>(untraced_s.size()) < kMinUntracedFits ||
         static_cast<int>(traced_s.size()) < min_traced_fits) {
    const bool traced = traced_s.size() <= untraced_s.size();
    if (traced) tracer.begin_fit();
    const Fit f = timed_fit(in.config, in.data.train, traced ? &tracer : nullptr);
    if (traced) {
      layers.push_back(tracer.end_fit(f.report.modeled_seconds));
      traced_s.push_back(f.host_s);
      report = f.report;
    } else {
      untraced_s.push_back(f.host_s);
    }
    repeats.add(f, out);
  }
  repeats.report(out);
  double reference_host_s = 0.0;
  check_reference(s, opt, in, repeats.first_text(), out, &reference_host_s);

  // The phase map must account for every modeled second. With several
  // devices it is the slowest device's map while modeled_seconds is the
  // group maximum, so the check applies to one device only.
  double phase_sum = 0.0;
  for (const auto& [name, sec] : report.phase_seconds) phase_sum += sec;
  std::printf("modeled phases sum %.9f s, fit_modeled %.9f s\n", phase_sum,
              report.modeled_seconds);
  if (s.devices == 1) {
    out.check(std::fabs(phase_sum - report.modeled_seconds) <=
                  1e-9 * report.modeled_seconds,
              "per-phase modeled seconds sum to fit modeled");
  }

  const double untraced = median(untraced_s);
  const double traced = median(traced_s);
  const FitLayers& last = layers.back();
  out.layer("sim.kernel_launches", static_cast<double>(last.launches));
  out.layer("sim.host_us_per_launch", traced / static_cast<double>(last.launches) * 1e6);
  if (!s.paged && s.devices == 1) {
    // The reference fit ran at nproc simulator threads on the same inputs.
    out.layer("sim.thread_speedup", untraced / reference_host_s);
    std::printf("thread speedup: %.4f s at %d thread / %.4f s at %d threads\n",
                untraced, kSimThreads, reference_host_s, opt.nproc);
  }
  out.layer("sim.comm_modeled_s", phase(report, "comm"));
  out.layer("sim.comm_inter_mb", static_cast<double>(report.comm_inter_bytes) / 1e6);
  out.layer("sim.comm_intra_mb", static_cast<double>(report.comm_intra_bytes) / 1e6);
  if (report.vote_rounds > 0) {
    const Share miss{report.vote_misses, report.vote_rounds};
    out.layer("sim.vote_miss_ratio", miss.value());
    std::printf("vote misses %s rounds\n", miss.str().c_str());
  }
  for (const char* p : {"gradient", "histogram", "split", "partition", "leaf", "update"}) {
    out.layer(std::string("core.") + p + "_modeled_s", phase(report, p));
    std::vector<double> host;
    for (const auto& l : layers) {
      const auto it = l.phase_host.find(p);
      host.push_back(it == l.phase_host.end() ? 0.0 : it->second);
    }
    out.layer(std::string("core.") + p + "_host_s", median(host));
  }
  const auto& h = last.histogram;
  const Share conflicts{h.atomic_global_conflicts + h.atomic_shared_conflicts,
                        h.atomic_global_ops + h.atomic_shared_ops};
  out.layer("core.hist_atomic_conflict_ratio", conflicts.value());
  // Computed from counters: coalesced bytes plus one 32-byte transaction
  // per random access.
  const double gmem_gb =
      (static_cast<double>(h.gmem_coalesced_bytes) +
       32.0 * static_cast<double>(h.gmem_random_accesses)) / 1e9;
  out.layer("core.hist_gmem_gb", gmem_gb);
  std::printf("histogram (computed from counters): atomic conflicts %s, "
              "global memory %.4f GB\n", conflicts.str().c_str(), gmem_gb);
  std::vector<double> tree_ms;
  for (const auto& l : layers) {
    tree_ms.insert(tree_ms.end(), l.tree_self_ms.begin(), l.tree_self_ms.end());
  }
  const Tail t90 = percentile(tree_ms, 90.0);
  out.layer("core.tree_host_ms_p50", percentile(tree_ms, 50.0).value);
  out.layer("core.tree_host_ms_p90", t90.value);
  std::printf("tree span self time p90 %.4f ms (%zu beyond of %zu)\n", t90.value,
              t90.beyond, t90.n);
  out.layer("data.quantize_host_s", median(quantize_s));
  if (s.paged) {
    const Share hits{report.page_hits, report.page_hits + report.page_misses};
    out.layer("data.page_hit_ratio", hits.value());
    out.layer("data.page_misses", static_cast<double>(report.page_misses));
    out.layer("data.page_mb", static_cast<double>(report.page_bytes_transferred) / 1e6);
    out.layer("data.page_modeled_s", phase(report, "page"));
    std::vector<double> host;
    for (const auto& l : layers) {
      const auto it = l.phase_host.find("page");
      host.push_back(it == l.phase_host.end() ? 0.0 : it->second);
    }
    out.layer("data.page_host_s", median(host));
    std::printf("page hits %s tile reads\n", hits.str().c_str());
  }
  out.layer("obs.trace_overhead_frac", traced / untraced - 1.0);
  std::printf("fit host: traced median %.4f s over %zu, untraced %.4f s over %zu\n",
              traced, traced_s.size(), untraced, untraced_s.size());
  if (!opt.trace_out.empty()) log.write_json(opt.trace_out);
}

}  // namespace

bool is_train_workload(const std::string& name) {
  return std::any_of(shapes().begin(), shapes().end(),
                     [&](const TrainShape& s) { return s.name == name; });
}

void run_train(const Options& opt, Result& out) {
  const TrainShape& s = shape_of(opt.workload);
  if (opt.trace) {
    run_traced(s, opt, out);
  } else {
    run_end_to_end(s, opt, out);
  }
}

}  // namespace gbmobench
