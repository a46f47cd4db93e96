// Inference fingerprint: pins everything the inference paths make
// observable, bit for bit — the compiled kernels (predict_compiled_route /
// predict_compiled_reduce, staged and unstaged, across two row tiles), the
// reference device path (predict_trees), the training-time score update
// (update_scores), the resilient engine's fallback under faults and device
// loss, categorical and zero-tree models, the host oracle and the booster's
// validation trace.
//
// A recording sink hashes, in arrival order, every kernel event (name,
// phase, device, tree, level, every KernelStats field and the bit patterns
// of `seconds` and `t_end`); each case also hashes the score bytes, the
// engines' modeled seconds and fallback counts. Every case runs at one and
// at four simulator threads against the same constant, so the pins also
// assert thread-count invariance. The constants were captured before the
// inference paths were merged and must never be edited: a refactor that
// needs new constants is not behaviour-preserving.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/booster.h"
#include "core/compiled_model.h"
#include "core/predictor.h"
#include "data/synthetic.h"
#include "serve/engine.h"
#include "sim/faults.h"
#include "sim/scheduler.h"
#include "test_fingerprint.h"

namespace gbmo {
namespace {

using core::Model;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

void add_nans(data::DenseMatrix& x, std::size_t stride) {
  auto vals = x.values();
  for (std::size_t i = 0; i < vals.size(); i += stride) vals[i] = kNaN;
}

data::Dataset mr_data(std::size_t rows, std::uint64_t seed) {
  data::MultiregressionSpec spec;
  spec.n_instances = rows;
  spec.n_features = 10;
  spec.n_outputs = 4;
  spec.seed = seed;
  return data::make_multiregression(spec);
}

data::Dataset cat_data() {
  data::MulticlassSpec spec;
  spec.n_instances = 240;
  spec.n_features = 8;
  spec.n_classes = 3;
  spec.cluster_sep = 2.0;
  spec.n_categorical = 3;
  spec.cat_cardinality = 9;
  spec.seed = 11;
  return data::make_multiclass(spec);
}

core::TrainConfig base_config(int trees) {
  core::TrainConfig cfg;
  cfg.n_trees = trees;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.4f;
  cfg.min_instances_per_node = 8;
  cfg.max_bins = 32;
  cfg.sim_threads = 1;
  return cfg;
}

// Numeric model: 8 trees over 10 features, 4 outputs, trained on rows with
// missing cells so default-left routing matters.
std::shared_ptr<const Model> mr_model() {
  static const auto model = [] {
    auto d = mr_data(300, 31);
    add_nans(d.x, 13);
    core::GbmoBooster booster(base_config(8));
    return std::make_shared<const Model>(booster.fit(d));
  }();
  return model;
}

std::shared_ptr<const Model> cat_model() {
  static const auto model = [] {
    auto cfg = base_config(5);
    cfg.min_instances_per_node = 4;
    cfg.cat_cols = {0, 1, 2};
    core::GbmoBooster booster(cfg);
    return std::make_shared<const Model>(booster.fit(cat_data()));
  }();
  return model;
}

std::shared_ptr<const Model> zero_tree_model() {
  auto m = std::make_shared<Model>(*mr_model());
  m->trees.clear();
  return m;
}

data::DenseMatrix nan_batch(std::size_t rows) {
  auto x = mr_data(rows, 77).x;
  add_nans(x, 11);
  return x;
}

data::DenseMatrix cat_batch() {
  auto x = cat_data().x;
  add_nans(x, 7);
  return x;
}

void hash_scores(Fnv& h, const std::vector<float>& scores) {
  h.u64(scores.size());
  h.bytes(scores.data(), scores.size() * sizeof(float));
}

// One engine answering `requests` batches: events, scores, modeled seconds
// and fallback count.
void run_engine(Fnv& h, RecordingSink& sink, const std::string& name,
                std::shared_ptr<const Model> model, const data::DenseMatrix& x,
                sim::DeviceSpec spec = sim::DeviceSpec::rtx4090(),
                int requests = 1) {
  auto engine = serve::make_engine(name, std::move(model), std::move(spec));
  engine->set_sink(&sink);
  for (int r = 0; r < requests; ++r) hash_scores(h, engine->predict(x));
  h.f64(engine->modeled_seconds());
  h.u64(engine->fallback_count());
}

struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) { sim::set_sim_faults(spec); }
  ~ScopedFaults() { sim::reset_sim_faults(); }
};

struct Case {
  const char* name;
  std::function<void(Fnv&, RecordingSink&)> run;
  // Kernel that must appear (guards the case's premise); empty = none.
  const char* requires_kernel;
  std::uint64_t expected;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {"compiled_staged",
       [](Fnv& h, RecordingSink& s) {
         run_engine(h, s, "compiled", mr_model(), nan_batch(500));
       },
       "predict_compiled_route", 0x11471181b2dc6012ull},
      // No tree group fits 64 bytes of shared memory: every group routes
      // from global memory.
      {"compiled_unstaged",
       [](Fnv& h, RecordingSink& s) {
         auto spec = sim::DeviceSpec::rtx4090();
         spec.shared_mem_per_block = 64;
         run_engine(h, s, "compiled", mr_model(), nan_batch(500), spec);
       },
       "predict_compiled_route", 0x129b82fca7255f4aull},
      // More than one 64Ki-row tile: the route/reduce pair runs per tile.
      {"compiled_two_row_tiles",
       [](Fnv& h, RecordingSink& s) {
         run_engine(h, s, "compiled", mr_model(), nan_batch(66000));
       },
       "predict_compiled_reduce", 0x49668de0af08a517ull},
      {"compiled_categorical",
       [](Fnv& h, RecordingSink& s) {
         run_engine(h, s, "compiled", cat_model(), cat_batch());
       },
       "predict_compiled_route", 0x7a039230f4b155a1ull},
      {"reference",
       [](Fnv& h, RecordingSink& s) {
         run_engine(h, s, "reference", mr_model(), nan_batch(500));
       },
       "predict_trees", 0xcd34a8f72772db6cull},
      {"reference_categorical",
       [](Fnv& h, RecordingSink& s) {
         run_engine(h, s, "reference", cat_model(), cat_batch());
       },
       "predict_trees", 0x87834b379768a3c3ull},
      {"resilient_clean",
       [](Fnv& h, RecordingSink& s) {
         run_engine(h, s, "resilient", mr_model(), nan_batch(300));
       },
       "predict_compiled_route", 0xcf6b725c37d2defcull},
      // Every compiled launch faults: each request exhausts its retries and
      // is answered by the reference path on the standby device.
      {"resilient_transient_fallback",
       [](Fnv& h, RecordingSink& s) {
         ScopedFaults armed("kernel=predict_compiled;transient=1.0");
         run_engine(h, s, "resilient", mr_model(), nan_batch(300),
                    sim::DeviceSpec::rtx4090(), /*requests=*/2);
       },
       "predict_trees", 0x21d4f5af9b9d9090ull},
      {"resilient_transient_fallback_categorical",
       [](Fnv& h, RecordingSink& s) {
         ScopedFaults armed("kernel=predict_compiled;transient=1.0");
         run_engine(h, s, "resilient", cat_model(), cat_batch());
       },
       "predict_trees", 0x172aeade17de8c57ull},
      // The primary is lost at its first launch: the engine pins itself to
      // the standby device.
      {"resilient_device_loss",
       [](Fnv& h, RecordingSink& s) {
         ScopedFaults armed("kill=0@0");
         run_engine(h, s, "resilient", mr_model(), nan_batch(300),
                    sim::DeviceSpec::rtx4090(), /*requests=*/2);
       },
       "predict_trees", 0x1796599e48d19b49ull},
      {"zero_tree_model",
       [](Fnv& h, RecordingSink& s) {
         for (const auto& name : serve::engine_names()) {
           run_engine(h, s, name, zero_tree_model(), nan_batch(100));
         }
         hash_scores(h, zero_tree_model()->predict(nan_batch(100)));
       },
       "", 0x33aa91cc4cd76a25ull},
      // Training-time score update from the recorded leaf of every row,
      // applied and cost-only.
      {"update_scores",
       [](Fnv& h, RecordingSink& s) {
         const auto model = mr_model();
         const auto x = nan_batch(700);
         sim::Device dev(sim::DeviceSpec::rtx4090());
         dev.set_sink(&s);
         std::vector<float> scores(x.n_rows() * 4, 0.0f);
         std::vector<std::int32_t> leaf_of_row(x.n_rows());
         for (const auto& tree : model->trees) {
           for (std::size_t i = 0; i < x.n_rows(); ++i) {
             leaf_of_row[i] = tree.find_leaf(x.row(i));
           }
           core::update_scores_from_leaves(dev, tree, leaf_of_row, scores);
         }
         core::update_scores_from_leaves(dev, model->trees.back(), leaf_of_row,
                                         scores, /*apply=*/false);
         hash_scores(h, scores);
         h.f64(dev.modeled_seconds());
       },
       "update_scores", 0x6e376c03b9813377ull},
      // The scalar oracle and the Model entry points built on it.
      {"host_model_predict",
       [](Fnv& h, RecordingSink&) {
         const auto x = nan_batch(400);
         const auto model = mr_model();
         hash_scores(h, core::predict_scores(model->trees, x, 4));
         hash_scores(h, model->predict(x));
         hash_scores(h, model->predict_staged(x, 3));
         hash_scores(h, model->predict_staged(x, 0));
         hash_scores(h, model->predict_proba(x));
         const auto cx = cat_batch();
         hash_scores(h, cat_model()->predict(cx));
         hash_scores(h, cat_model()->predict_staged(cx, 2));
         hash_scores(h, cat_model()->predict_proba(cx));
       },
       "", 0x90df20a546ac29cdull},
      // Per-tree validation scores feed the early-stopping trace.
      {"booster_validation_trace",
       [](Fnv& h, RecordingSink& s) {
         auto train = mr_data(300, 31);
         add_nans(train.x, 13);
         auto valid = mr_data(200, 5);
         add_nans(valid.x, 9);
         auto cfg = base_config(6);
         cfg.sim_threads = 0;  // the case's thread count
         cfg.early_stopping_rounds = 2;
         core::GbmoBooster booster(cfg);
         booster.set_sink(&s);
         const auto model = booster.fit(train, nullptr, &valid);
         for (const double v : booster.report().valid_metric_per_tree) h.f64(v);
         h.f64(booster.report().modeled_seconds);
         h.u64(model.trees.size());
       },
       "", 0x71539c0d3bdefda5ull},
      {"booster_validation_trace_categorical",
       [](Fnv& h, RecordingSink& s) {
         auto cfg = base_config(5);
         cfg.sim_threads = 0;
         cfg.min_instances_per_node = 4;
         cfg.cat_cols = {0, 1, 2};
         const auto train = cat_data();
         data::MulticlassSpec spec;
         spec.n_instances = 90;
         spec.n_features = 8;
         spec.n_classes = 3;
         spec.cluster_sep = 2.0;
         spec.n_categorical = 3;
         spec.cat_cardinality = 9;
         spec.seed = 12;
         const auto valid = data::make_multiclass(spec);
         core::GbmoBooster booster(cfg);
         booster.set_sink(&s);
         booster.fit(train, nullptr, &valid);
         for (const double v : booster.report().valid_metric_per_tree) h.f64(v);
         h.f64(booster.report().modeled_seconds);
       },
       "", 0x4c16b5cf28776b14ull},
  };
  return kCases;
}

struct Param {
  std::size_t index;
  int threads;
};

void PrintTo(const Param& p, std::ostream* os) {
  *os << cases()[p.index].name << " @ " << p.threads << " threads";
}

class InferenceFingerprint : public ::testing::TestWithParam<Param> {};

TEST_P(InferenceFingerprint, Pinned) {
  const Case& tc = cases()[GetParam().index];
  // Train the shared models outside the measured run.
  (void)mr_model();
  (void)cat_model();
  sim::set_sim_threads(GetParam().threads);
  RecordingSink sink;
  tc.run(sink.h, sink);
  sim::set_sim_threads(0);
  if (tc.requires_kernel[0] != '\0') {
    EXPECT_GT(sink.kernels.count(tc.requires_kernel), 0u)
        << tc.name << ": premise kernel " << tc.requires_kernel << " missing";
  }
  const std::uint64_t got = sink.h.value();
  EXPECT_EQ(got, tc.expected) << tc.name << ": got 0x" << std::hex << got << "ull";
}

std::vector<Param> params() {
  std::vector<Param> out;
  for (std::size_t i = 0; i < cases().size(); ++i) {
    for (int threads : {1, 4}) out.push_back({i, threads});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InferenceFingerprint, ::testing::ValuesIn(params()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(cases()[info.param.index].name) + "_t" +
             std::to_string(info.param.threads);
    });

}  // namespace
}  // namespace gbmo
