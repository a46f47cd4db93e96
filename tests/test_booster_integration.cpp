// Booster integration: multi-device training equals single-device training,
// determinism, model IO round trip, overfitting capacity, and device-spec
// sensitivity.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/booster.h"
#include "core/model_io.h"
#include "data/synthetic.h"

namespace gbmo::core {
namespace {

data::Dataset make_data(std::uint64_t seed = 4) {
  data::MulticlassSpec spec;
  spec.n_instances = 500;
  spec.n_features = 14;
  spec.n_classes = 6;
  spec.cluster_sep = 1.8;
  spec.seed = seed;
  return data::make_multiclass(spec);
}

TrainConfig cfg_base() {
  TrainConfig cfg;
  cfg.n_trees = 8;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.5f;
  cfg.min_instances_per_node = 8;
  cfg.max_bins = 32;
  return cfg;
}

class MultiDeviceEquivalence
    : public ::testing::TestWithParam<std::tuple<int, MultiGpuMode>> {};

TEST_P(MultiDeviceEquivalence, SameModelAsSingleDevice) {
  const auto [n_devices, mode] = GetParam();
  const auto d = make_data();

  GbmoBooster single(cfg_base());
  const auto ref = single.fit(d);

  auto cfg = cfg_base();
  cfg.n_devices = n_devices;
  cfg.multi_gpu = mode;
  GbmoBooster multi(cfg);
  const auto got = multi.fit(d);
  ASSERT_EQ(got.trees.size(), ref.trees.size());

  if (mode == MultiGpuMode::kFeatureParallel) {
    // Feature partitioning changes nothing about per-feature accumulation
    // order: the trees must be bit-identical to the single-device run.
    for (std::size_t t = 0; t < ref.trees.size(); ++t) {
      ASSERT_EQ(got.trees[t].n_nodes(), ref.trees[t].n_nodes()) << "tree " << t;
      for (std::size_t n = 0; n < ref.trees[t].n_nodes(); ++n) {
        EXPECT_EQ(got.trees[t].node(n).feature, ref.trees[t].node(n).feature);
        EXPECT_EQ(got.trees[t].node(n).split_bin, ref.trees[t].node(n).split_bin);
      }
      const auto rv = ref.trees[t].all_leaf_values();
      const auto gv = got.trees[t].all_leaf_values();
      ASSERT_EQ(rv.size(), gv.size());
      for (std::size_t i = 0; i < rv.size(); ++i) EXPECT_NEAR(gv[i], rv[i], 1e-4f);
    }
  } else {
    // Data-parallel partial-histogram reduction reassociates float sums, so
    // near-tie splits may legitimately flip (exactly as on real multi-GPU
    // hardware); the learned *function* must stay equivalent.
    const auto acc_ref = core::accuracy(ref.predict(d.x), d.y);
    const auto acc_got = core::accuracy(got.predict(d.x), d.y);
    EXPECT_NEAR(acc_got, acc_ref, 0.03);
  }
  // Communication must have been charged in the multi-device run.
  EXPECT_GT(multi.report().modeled_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiDeviceEquivalence,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values(MultiGpuMode::kFeatureParallel,
                                         MultiGpuMode::kDataParallel)));

TEST(BoosterDeterminism, SameSeedSameModel) {
  const auto d = make_data();
  GbmoBooster a(cfg_base()), b(cfg_base());
  const auto ma = a.fit(d);
  const auto mb = b.fit(d);
  ASSERT_EQ(ma.trees.size(), mb.trees.size());
  const auto sa = ma.predict(d.x);
  const auto sb = mb.predict(d.x);
  EXPECT_EQ(sa, sb);
  EXPECT_DOUBLE_EQ(a.report().modeled_seconds, b.report().modeled_seconds);
}

TEST(ModelIoTest, RoundTripPreservesPredictions) {
  const auto d = make_data(8);
  GbmoBooster booster(cfg_base());
  const auto model = booster.fit(d);

  std::stringstream ss;
  write_model(ss, model);
  const auto loaded = read_model(ss);

  EXPECT_EQ(loaded.task, model.task);
  EXPECT_EQ(loaded.n_outputs, model.n_outputs);
  ASSERT_EQ(loaded.trees.size(), model.trees.size());

  const auto orig = model.predict(d.x);
  const auto back = loaded.predict(d.x);
  ASSERT_EQ(orig.size(), back.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_NEAR(back[i], orig[i], 1e-5f);
  }
}

TEST(ModelIoTest, RejectsGarbage) {
  std::stringstream ss("not a model");
  EXPECT_THROW(read_model(ss), Error);
}

// A one-split, one-output model over one feature, as text, with a trailing
// categorical table so every counted record appears.
std::string tiny_model_text() {
  return "gbmo-model-v1\n"
         "task multiregress 1\n"
         "features 1 4\n"
         "cuts 1 0.5\n"
         "trees 1\n"
         "tree 3 2\n"
         "node 0 0 0.5 1 2 -1 1 10 1\n"
         "node -1 -1 0 -1 -1 0 0 5 1\n"
         "node -1 -1 0 -1 -1 1 0 5 1\n"
         "leaves -1 1\n"
         "categoricals 1\n"
         "cat 0 0.5 1\n"
         "17 0.25\n";
}

// `text` with the first occurrence of `from` replaced by `to`.
std::string mutate(std::string text, const std::string& from,
                   const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

Model read_text(const std::string& text) {
  std::istringstream is(text);
  return read_model(is);
}

TEST(ModelIoTest, TinyModelTextLoads) {
  const auto model = read_text(tiny_model_text());
  ASSERT_EQ(model.trees.size(), 1u);
  EXPECT_EQ(model.trees[0].n_leaves(), 2u);
  EXPECT_EQ(model.categoricals.size(), 1u);
}

// Each count is checked against the bytes left before anything is sized
// from it: an inflated count is a gbmo::Error, never std::bad_alloc.
TEST(ModelIoTest, RejectsCountsTheFileCannotHold) {
  const std::string huge = "2000000000";
  const std::string text = tiny_model_text();
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"features 1 4", "features " + huge + " 4"},
           {"cuts 1 ", "cuts " + huge + " "},
           {"trees 1", "trees " + huge},
           {"tree 3 2", "tree " + huge + " 2"},
           {"tree 3 2", "tree 3 " + huge},
           {"categoricals 1", "categoricals " + huge},
           {"cat 0 0.5 1", "cat 0 0.5 " + huge},
           {"trees 1", "trees -1"},
       }) {
    EXPECT_THROW(read_text(mutate(text, from, to)), Error) << to;
  }
}

TEST(ModelIoTest, RejectsCheckpointArraysTheFileCannotHold) {
  Checkpoint ckpt;
  ckpt.scores = {1.0f, 2.0f};
  ckpt.valid_scores = {3.0f};
  ckpt.valid_metric_per_tree = {0.5};
  ckpt.trees_completed = 1;
  ckpt.model = read_text(tiny_model_text());
  std::ostringstream os;
  write_checkpoint(os, ckpt);
  {
    std::istringstream is(os.str());
    EXPECT_EQ(read_checkpoint(is).scores.size(), 2u);
  }
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"scores 2", "scores 2000000000"},
           {"validscores 1", "validscores 2000000000"},
           {"validmetrics 1", "validmetrics 2000000000"},
       }) {
    std::istringstream is(mutate(os.str(), from, to));
    EXPECT_THROW(read_checkpoint(is), Error) << to;
  }
}

// A child id that does not lie after its parent would let a traversal loop
// forever (a root whose children are both 0) or read past the node array.
TEST(ModelIoTest, RejectsChildIdsThatDoNotDescend) {
  const std::string root = "node 0 0 0.5 1 2 -1 1 10 1";
  for (const char* bad :
       {"node 0 0 0.5 0 0 -1 1 10 1", "node 0 0 0.5 1 3 -1 1 10 1",
        "node 0 0 0.5 -1 2 -1 1 10 1", "node 0 0 0.5 1 99 -1 1 10 1"}) {
    EXPECT_THROW(read_text(mutate(tiny_model_text(), root, bad)), Error) << bad;
  }
  EXPECT_THROW(read_text(mutate(tiny_model_text(), "tree 3 2\nnode 0 0 0.5 1 2 -1 1 10 1\n"
                                                   "node -1 -1 0 -1 -1 0 0 5 1\n"
                                                   "node -1 -1 0 -1 -1 1 0 5 1\n",
                                "tree 0 2\n")),
               Error)
      << "tree without a root";
}

TEST(ModelIoTest, RejectsSplitFeatureOutsideTheModelWidth) {
  EXPECT_THROW(read_text(mutate(tiny_model_text(), "node 0 0 0.5",
                                "node 1 0 0.5")),
               Error);
}

// The width is an invariant of the model's predict entry points: a matrix
// of any other width is rejected before a row is read.
TEST(ModelIoTest, PredictRejectsInputOfAnotherWidth) {
  const auto d = make_data(8);
  GbmoBooster booster(cfg_base());
  const auto model = booster.fit(d);
  data::DenseMatrix narrow(5, 8);
  try {
    (void)model.predict(narrow);
    FAIL() << "8-column input accepted by a 14-feature model";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("8"), std::string::npos) << what;
    EXPECT_NE(what.find("14"), std::string::npos) << what;
  }
  EXPECT_THROW((void)model.predict_staged(data::DenseMatrix(5, 20), 0), Error);
  EXPECT_THROW((void)model.predict_proba(narrow), Error);
}

TEST(BoosterCapacity, OverfitsNoiselessData) {
  data::MultiregressionSpec spec;
  spec.n_instances = 200;
  spec.n_features = 6;
  spec.n_outputs = 3;
  spec.noise_std = 0.0;
  const auto d = data::make_multiregression(spec);

  auto cfg = cfg_base();
  cfg.n_trees = 60;
  cfg.max_depth = 6;
  cfg.learning_rate = 0.3f;
  cfg.min_instances_per_node = 1;
  GbmoBooster booster(cfg);
  booster.fit(d);
  EXPECT_LT(booster.report().final_train_loss, 0.01);
}

TEST(BoosterDeviceSpec, SlowerDeviceModelsSlower) {
  const auto d = make_data(12);
  GbmoBooster fast(cfg_base(), sim::DeviceSpec::rtx4090());
  GbmoBooster slow(cfg_base(), sim::DeviceSpec::cpu_server());
  fast.fit(d);
  slow.fit(d);
  EXPECT_LT(fast.report().modeled_seconds * 3, slow.report().modeled_seconds);
}

TEST(BoosterReport, ExtrapolationIsLinearInTrees) {
  const auto d = make_data(13);
  GbmoBooster booster(cfg_base());
  booster.fit(d);
  const auto& r = booster.report();
  const double t100 = r.extrapolate_seconds(100);
  const double t500 = r.extrapolate_seconds(500);
  EXPECT_NEAR((t500 - r.setup_seconds) / (t100 - r.setup_seconds), 5.0, 1e-6);
}

TEST(BoosterOom, TinyDeviceMemoryThrows) {
  auto spec = sim::DeviceSpec::rtx4090();
  spec.memory_bytes = 1 << 16;  // 64 KiB: cannot even hold the bin matrix
  const auto d = make_data(14);
  GbmoBooster booster(cfg_base(), spec);
  EXPECT_THROW(booster.fit(d), sim::OutOfDeviceMemory);
}

}  // namespace
}  // namespace gbmo::core
