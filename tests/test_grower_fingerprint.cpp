// Grower fingerprint: pins everything the tree grower makes observable, bit
// for bit, over the growth-policy x data x topology matrix plus the paths
// that only some configurations reach (histogram-pool fallback, CSC level
// sweep, column sampling, GOSS, out-of-core paging, device-loss failover).
//
// A recording sink hashes, in arrival order, every kernel event (name,
// phase, device, tree, level, every KernelStats field and the bit patterns
// of `seconds` and `t_end`) and every span begin/end; after the fit it
// hashes the saved model bytes, each device's final modeled clock, the
// report's modeled seconds, peak device bytes and the paging and vote
// counters. Any change to what is charged, where, in which order, or to the
// trained model changes the hash. The constants were captured before the
// grower's build / partition / expansion paths were merged and must never be
// edited: a refactor that needs new constants is not behaviour-preserving.
//
// Runs at one simulator thread so the event arrival order is the launch
// order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/booster.h"
#include "core/model_io.h"
#include "data/paged_dataset.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "sim/sink.h"

namespace gbmo::core {
namespace {

// FNV-1a over a byte stream.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    u64(b);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

class RecordingSink : public sim::StatsSink {
 public:
  void on_event(const sim::KernelEvent& e) override {
    h.u64('K');
    h.str(*e.name);
    h.str(*e.phase);
    h.i64(e.device);
    h.i64(e.tree);
    h.i64(e.level);
    const sim::KernelStats& s = e.stats;
    for (const std::uint64_t v :
         {s.gmem_coalesced_bytes, s.gmem_random_accesses, s.atomic_global_ops,
          s.atomic_global_conflicts, s.atomic_shared_ops,
          s.atomic_shared_conflicts, s.smem_bytes, s.flops, s.blocks,
          s.threads, s.barriers, s.sort_pairs_bytes, s.scan_bytes,
          s.check_violations, s.faults_injected, s.fault_retries}) {
      h.u64(v);
    }
    h.f64(e.seconds);
    h.f64(e.t_end);
    clock[e.device] = e.t_end;
    last_tree[e.device] = e.tree;
    ++kernels[*e.name];
  }
  void on_span_begin(const std::string& name, double ts) override {
    h.u64('B');
    h.str(name);
    h.f64(ts);
  }
  void on_span_end(double ts) override {
    h.u64('E');
    h.f64(ts);
  }

  Fnv h;
  std::map<int, double> clock;  // device -> modeled seconds after its last charge
  std::map<int, int> last_tree;  // device -> tree of its last charge
  std::map<std::string, std::uint64_t> kernels;
};

enum class Data { kDense, kSparse, kWide, kMidWide };

data::Dataset make_data(Data kind) {
  switch (kind) {
    case Data::kDense: {
      data::MulticlassSpec spec;
      spec.n_instances = 480;
      spec.n_features = 14;
      spec.n_classes = 5;
      spec.cluster_sep = 1.8;
      spec.seed = 7;
      return data::make_multiclass(spec);
    }
    case Data::kSparse: {
      data::MultilabelSpec spec;
      spec.n_instances = 400;
      spec.n_features = 30;
      spec.n_outputs = 6;
      spec.sparsity = 0.85;
      spec.seed = 11;
      return data::make_multilabel(spec);
    }
    case Data::kWide:
    case Data::kMidWide: {
      // 128 bins x 10 outputs: ~1.07 MB of sums per node histogram at 100
      // features (no histogram fits a 1 MB pool), ~0.21 MB at 20 (four fit:
      // level-wise subtracts at level 1 and falls back from level 2 on).
      data::MultiregressionSpec spec;
      spec.n_instances = 400;
      spec.n_features = kind == Data::kWide ? 100 : 20;
      spec.n_outputs = 10;
      spec.seed = 3;
      return data::make_multiregression(spec);
    }
  }
  return {};
}

struct Case {
  const char* name;
  Data data;
  std::function<void(TrainConfig&)> tweak;
  // Kernel that must appear (guards the case's premise); empty = none.
  const char* requires_kernel;
  // Kernel that must not appear; empty = none.
  const char* forbids_kernel;
  std::uint64_t expected;
};

TrainConfig base_config() {
  TrainConfig cfg;
  cfg.n_trees = 3;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.4f;
  cfg.min_instances_per_node = 4;
  cfg.max_bins = 32;
  cfg.sim_threads = 1;
  return cfg;
}

void leaf(TrainConfig& c) {
  c.growth = GrowthPolicy::kLeafWise;
  c.max_leaves = 10;
  c.max_depth = 6;
}
void efb(TrainConfig& c) { c.efb = true; }
void fp2(TrainConfig& c) {
  c.n_devices = 2;
  c.multi_gpu = MultiGpuMode::kFeatureParallel;
}
void dp2x2(TrainConfig& c) {
  c.n_devices = 4;
  c.n_nodes = 2;
  c.multi_gpu = MultiGpuMode::kDataParallel;
}
void vp2x2(TrainConfig& c) {
  c.n_devices = 4;
  c.n_nodes = 2;
  c.multi_gpu = MultiGpuMode::kVotingParallel;
  c.voting_k = 3;
}

template <typename... F>
std::function<void(TrainConfig&)> all(F... f) {
  return [=](TrainConfig& c) { (f(c), ...); };
}
void none(TrainConfig&) {}

std::uint64_t fingerprint(const Case& tc) {
  const data::Dataset d = make_data(tc.data);
  TrainConfig cfg = base_config();
  tc.tweak(cfg);
  if (cfg.device_budget_bytes == 1) {
    // Out-of-core marker: half of the real bin-packed tile footprint.
    const auto cuts = data::BinCuts::build(d.x, cfg.max_bins);
    data::BinnedMatrix binned(d.x, cuts);
    binned.pack();
    const data::PagedDataset paged(
        binned, static_cast<std::size_t>(cfg.stream_chunk_rows));
    cfg.device_budget_bytes = paged.total_bytes() / 2;
  }

  RecordingSink sink;
  GbmoBooster booster(cfg);
  booster.set_sink(&sink);
  const Model model = booster.fit(d);
  const TrainReport& rep = booster.report();

  if (tc.requires_kernel[0] != '\0') {
    EXPECT_GT(sink.kernels.count(tc.requires_kernel), 0u)
        << tc.name << ": premise kernel " << tc.requires_kernel << " missing";
  }
  if (tc.forbids_kernel[0] != '\0') {
    EXPECT_EQ(sink.kernels.count(tc.forbids_kernel), 0u)
        << tc.name << ": kernel " << tc.forbids_kernel << " should not run";
  }
  EXPECT_EQ(rep.trees_trained, cfg.n_trees) << tc.name;
  if (!cfg.faults.empty()) {
    // The scripted kill must land mid-run: the lost device stops charging
    // before the last tree while the survivors finish it.
    int first = cfg.n_trees, last = -1;
    for (const auto& [dev, t] : sink.last_tree) {
      first = std::min(first, t);
      last = std::max(last, t);
    }
    EXPECT_LT(first, last) << tc.name << ": no device was lost";
  }

  Fnv& h = sink.h;
  std::ostringstream os;
  write_model(os, model);
  h.str(os.str());
  for (const auto& [dev, t] : sink.clock) {
    h.i64(dev);
    h.f64(t);
  }
  h.f64(rep.modeled_seconds);
  h.u64(rep.peak_device_bytes);
  for (const std::uint64_t v :
       {rep.page_hits, rep.page_misses, rep.page_evictions,
        rep.page_bytes_transferred, rep.comm_intra_bytes, rep.comm_inter_bytes,
        rep.vote_rounds, rep.vote_misses}) {
    h.u64(v);
  }
  return h.value();
}

// device_budget_bytes = 1 asks fingerprint() for half the tile footprint.
void ooc_half(TrainConfig& c) {
  c.stream_chunk_rows = 64;
  c.device_budget_bytes = 1;
}

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      // {level, leaf} x {plain, EFB on sparse data} x
      // {1 device, 2-GPU feature-parallel, 2x2 data-parallel, 2x2 voting}.
      {"level_plain_1dev", Data::kDense, none, "", "efb_expand", 0x52d463c4536b83c4ull},
      {"level_plain_fp2", Data::kDense, fp2, "", "", 0xc0012b8871f48210ull},
      {"level_plain_dp2x2", Data::kDense, dp2x2, "", "", 0x483454f8185b09b5ull},
      {"level_plain_vp2x2", Data::kDense, vp2x2, "vote_local_split", "",
       0x2c4bcfd9019fc6acull},
      {"level_efb_1dev", Data::kSparse, efb, "efb_expand", "", 0x2dcb8c4e0a99d7faull},
      {"level_efb_fp2", Data::kSparse, all(efb, fp2), "efb_expand", "",
       0x200f2b21b51dc3d3ull},
      {"level_efb_dp2x2", Data::kSparse, all(efb, dp2x2), "efb_expand", "",
       0x7f6b767ec64ada14ull},
      {"level_efb_vp2x2", Data::kSparse, all(efb, vp2x2), "efb_expand", "",
       0xc258c8137f07fb5dull},
      {"leaf_plain_1dev", Data::kDense, leaf, "", "efb_expand", 0x4e8b9cb0de356ab4ull},
      {"leaf_plain_fp2", Data::kDense, all(leaf, fp2), "", "", 0x8223fc7ab0652dd2ull},
      {"leaf_plain_dp2x2", Data::kDense, all(leaf, dp2x2), "", "", 0x976054b2848280abull},
      {"leaf_plain_vp2x2", Data::kDense, all(leaf, vp2x2), "vote_local_split",
       "", 0xe603a951c2abf2f9ull},
      {"leaf_efb_1dev", Data::kSparse, all(leaf, efb), "efb_expand", "",
       0xd1659a220f2ca04eull},
      {"leaf_efb_fp2", Data::kSparse, all(leaf, efb, fp2), "efb_expand", "",
       0xccc47d08d8b188bcull},
      {"leaf_efb_dp2x2", Data::kSparse, all(leaf, efb, dp2x2), "efb_expand",
       "", 0x843c051db4f9ebf5ull},
      {"leaf_efb_vp2x2", Data::kSparse, all(leaf, efb, vp2x2), "efb_expand",
       "", 0x84739329ec51c372ull},

      // Histogram pool: nothing fits (pure fallback), or some histograms
      // fit and the rest use scratch.
      {"level_budget_none_fits", Data::kWide,
       [](TrainConfig& c) { c.max_bins = 128; c.hist_budget_mb = 1; }, "",
       "hist_subtract", 0x7c514ca2a3a7243dull},
      {"leaf_budget_none_fits", Data::kWide,
       all(leaf, [](TrainConfig& c) { c.max_bins = 128; c.hist_budget_mb = 1; }),
       "", "hist_subtract", 0xdc34a1d27b2ac6a5ull},
      {"level_budget_some_fit", Data::kMidWide,
       [](TrainConfig& c) { c.max_bins = 128; c.hist_budget_mb = 1; },
       "hist_subtract", "", 0xb2ca6dbfbf73e06bull},
      {"leaf_budget_some_fit", Data::kMidWide,
       all(leaf, [](TrainConfig& c) { c.max_bins = 128; c.hist_budget_mb = 1; }),
       "hist_subtract", "", 0x5586fb3159a8c673ull},
      {"level_no_subtraction", Data::kDense,
       [](TrainConfig& c) { c.sibling_subtraction = false; }, "",
       "hist_subtract", 0x5dbbf338bea8e46ull},
      {"level_max_leaves", Data::kDense,
       [](TrainConfig& c) { c.max_leaves = 7; }, "", "", 0x22b08af501f9a82full},

      // CSC level sweep (one device, and feature-parallel).
      {"level_csc_sweep_1dev", Data::kSparse,
       [](TrainConfig& c) { c.csc_level_sweep = true; }, "hist_csc_sweep", "",
       0xa4112d27c98019a8ull},
      {"level_csc_sweep_fp2", Data::kSparse,
       all(fp2, [](TrainConfig& c) { c.csc_level_sweep = true; }),
       "hist_csc_sweep", "", 0x3f77dab0bc1a1fa2ull},

      // Column sampling, plain and bundled over two feature-parallel GPUs.
      {"level_colsample_1dev", Data::kDense,
       [](TrainConfig& c) { c.colsample_bytree = 0.6; }, "", "", 0xb0d20754ec9fb0b2ull},
      {"leaf_colsample_efb_fp2", Data::kSparse,
       all(leaf, efb, fp2, [](TrainConfig& c) { c.colsample_bytree = 0.6; }),
       "efb_expand", "", 0x19acdde3c3f51a2full},

      // GOSS row sampling.
      {"level_goss_1dev", Data::kDense,
       [](TrainConfig& c) { c.goss_a = 0.2; c.goss_b = 0.3; }, "", "", 0xace297aae91f1018ull},

      // Out-of-core at half the tile footprint.
      {"level_ooc_half_1dev", Data::kDense, ooc_half, "block_h2d", "", 0x147a8d1798f17a9full},
      {"leaf_ooc_half_dp2x2", Data::kDense, all(leaf, dp2x2, ooc_half),
       "block_h2d", "", 0xf7d496286b97a32aull},

      // Device loss mid-tree: the column partition (plain and bundle-aligned)
      // and the row shards are rebuilt over the survivors.
      {"level_failover_fp3", Data::kDense,
       [](TrainConfig& c) {
         c.n_devices = 3;
         c.faults = "kill=1@25";
       },
       "", "", 0xbc1932860fa92b1cull},
      {"leaf_failover_efb_fp3", Data::kSparse,
       all(leaf, efb,
           [](TrainConfig& c) {
             c.n_devices = 3;
             c.faults = "kill=2@30";
           }),
       "efb_expand", "", 0xd7a4349cd93c7b89ull},
      {"level_failover_dp2x2", Data::kDense,
       all(dp2x2, [](TrainConfig& c) { c.faults = "kill=1@20"; }), "", "",
       0x948b0c04dc5da3a8ull},
  };
  return kCases;
}

class GrowerFingerprint : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GrowerFingerprint, Pinned) {
  const Case& tc = cases()[GetParam()];
  const std::uint64_t got = fingerprint(tc);
  EXPECT_EQ(got, tc.expected)
      << tc.name << ": got 0x" << std::hex << got << "ull";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GrowerFingerprint, ::testing::Range<std::size_t>(0, cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(cases()[info.param].name);
    });

}  // namespace
}  // namespace gbmo::core
