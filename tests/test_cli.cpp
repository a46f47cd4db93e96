// End-to-end CLI flows through gbmo::cli::run — the same code path the gbmo
// binary executes, driven with temp files.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cli.h"
#include "test_temp_dir.h"

namespace gbmo::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(std::initializer_list<std::string> args) {
  std::ostringstream out, err;
  const int code = run(std::vector<std::string>(args), out, err);
  return {code, out.str(), err.str()};
}

// Gives each test a scratch directory of its own (see test_temp_dir.h).
class CliTempDir : public ::testing::Test {
 protected:
  std::string tmp_path(const char* name) const { return dir_.path(name); }

 private:
  TestTempDir dir_;
};

class CliFlow : public CliTempDir {
 protected:
  void SetUp() override {
    const auto gen = run_cli({"generate", "--task", "multiclass", "--n", "400",
                              "--m", "8", "--d", "3", "--seed", "9", "--out",
                              tmp_path("data.csv")});
    ASSERT_EQ(gen.code, 0) << gen.err;
  }
};

class CliErrors : public CliTempDir {};
class CliGenerate : public CliTempDir {};

TEST_F(CliFlow, TrainEvaluatePredictInfoImportance) {
  const auto train = run_cli({"train", "--data", tmp_path("data.csv"),
                              "--features", "8", "--model", tmp_path("m.model"),
                              "--trees", "10", "--depth", "4", "--lr", "0.5",
                              "--bins", "32"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("model saved"), std::string::npos);
  EXPECT_NE(train.out.find("histogram fraction"), std::string::npos);

  const auto eval = run_cli({"evaluate", "--model", tmp_path("m.model"),
                             "--data", tmp_path("data.csv"), "--features", "8"});
  ASSERT_EQ(eval.code, 0) << eval.err;
  EXPECT_NE(eval.out.find("accuracy%"), std::string::npos);

  const auto predict = run_cli({"predict", "--model", tmp_path("m.model"),
                                "--data", tmp_path("data.csv"), "--features",
                                "8", "--out", tmp_path("scores.csv")});
  ASSERT_EQ(predict.code, 0) << predict.err;
  std::ifstream scores(tmp_path("scores.csv"));
  std::string line;
  std::size_t lines = 0;
  while (std::getline(scores, line)) {
    ++lines;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2);  // 3 outputs
  }
  EXPECT_EQ(lines, 400u);

  const auto info = run_cli({"info", "--model", tmp_path("m.model")});
  ASSERT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("trees:       10"), std::string::npos);
  EXPECT_EQ(info.out.find("max depth:   0"), std::string::npos);

  const auto imp = run_cli({"importance", "--model", tmp_path("m.model"),
                            "--top", "3"});
  ASSERT_EQ(imp.code, 0) << imp.err;
  EXPECT_NE(imp.out.find("feature "), std::string::npos);
}

TEST_F(CliFlow, ServeRoutesMixedTrafficAcrossModels) {
  const auto t1 = run_cli({"train", "--data", tmp_path("data.csv"),
                           "--features", "8", "--model", tmp_path("sa.model"),
                           "--trees", "6", "--depth", "4", "--bins", "32"});
  ASSERT_EQ(t1.code, 0) << t1.err;
  const auto t2 = run_cli({"train", "--data", tmp_path("data.csv"),
                           "--features", "8", "--model", tmp_path("sb.model"),
                           "--trees", "9", "--depth", "3", "--bins", "32"});
  ASSERT_EQ(t2.code, 0) << t2.err;

  const auto serve = run_cli(
      {"serve", "--models",
       "alpha=" + tmp_path("sa.model") + ",beta=" + tmp_path("sb.model"),
       "--data", tmp_path("data.csv"), "--features", "8", "--batch", "32",
       "--delay-ms", "0.2", "--rounds", "2"});
  ASSERT_EQ(serve.code, 0) << serve.err;
  // Both tenants show up in the SLO table with the percentile columns.
  EXPECT_NE(serve.out.find("alpha"), std::string::npos);
  EXPECT_NE(serve.out.find("beta"), std::string::npos);
  EXPECT_NE(serve.out.find("p50 ms"), std::string::npos);
  EXPECT_NE(serve.out.find("p99 ms"), std::string::npos);
  // 400 rows x 2 rounds x 2 models, none rejected or failed.
  EXPECT_NE(serve.out.find("served 1600 requests across 2 models"),
            std::string::npos);
  EXPECT_NE(serve.out.find("0 rejected, 0 failed"), std::string::npos);

  const auto bad = run_cli({"serve", "--models", "broken-entry", "--data",
                            tmp_path("data.csv"), "--features", "8"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("name=path"), std::string::npos);
}

TEST_F(CliFlow, TrainWithValidationAndEarlyStop) {
  const auto gen = run_cli({"generate", "--task", "multiclass", "--n", "150",
                            "--m", "8", "--d", "3", "--seed", "10", "--out",
                            tmp_path("valid.csv")});
  ASSERT_EQ(gen.code, 0);
  const auto train = run_cli(
      {"train", "--data", tmp_path("data.csv"), "--features", "8", "--model",
       tmp_path("es.model"), "--trees", "50", "--lr", "0.8", "--bins", "32",
       "--valid", tmp_path("valid.csv"), "--early-stop", "3"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("valid accuracy%"), std::string::npos);
}

TEST_F(CliErrors, UnknownCommandAndMissingOptions) {
  const auto bad = run_cli({"frobnicate"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("unknown command"), std::string::npos);

  const auto missing = run_cli({"train", "--features", "8"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("--data"), std::string::npos);

  const auto unknown_opt = run_cli({"info", "--model", "/nonexistent",
                                    "--bogus", "1"});
  EXPECT_EQ(unknown_opt.code, 1);

  const auto help = run_cli({"--help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage"), std::string::npos);
}

TEST_F(CliErrors, ModelLoadFailureExitsNonzeroWithClearMessage) {
  // Missing file: nonzero exit, message names the path and the problem.
  const auto missing = run_cli({"info", "--model", tmp_path("never_written")});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("cannot open model file"), std::string::npos);
  EXPECT_NE(missing.err.find(tmp_path("never_written")), std::string::npos);

  // Present but not a model: nonzero exit, parse failure names the file.
  const auto garbage_path = tmp_path("garbage.model");
  {
    std::ofstream os(garbage_path);
    os << "this is not a model\n";
  }
  const auto garbage = run_cli({"evaluate", "--model", garbage_path, "--data",
                                tmp_path("data.csv"), "--features", "8"});
  EXPECT_EQ(garbage.code, 1);
  EXPECT_NE(garbage.err.find("failed to load model"), std::string::npos);
  EXPECT_NE(garbage.err.find("not a gbmo model file"), std::string::npos);
}

// A model applied to data of another width must fail loudly on every
// inference entry point, naming both widths, instead of reading past rows.
TEST_F(CliErrors, PredictAndEvaluateRejectDataOfAnotherWidth) {
  const auto gen_wide = run_cli({"generate", "--task", "multiclass", "--n",
                                 "200", "--m", "12", "--d", "3", "--seed", "4",
                                 "--out", tmp_path("wide.csv")});
  ASSERT_EQ(gen_wide.code, 0) << gen_wide.err;
  const auto gen_narrow = run_cli({"generate", "--task", "multiclass", "--n",
                                   "50", "--m", "8", "--d", "3", "--seed", "5",
                                   "--out", tmp_path("narrow.csv")});
  ASSERT_EQ(gen_narrow.code, 0) << gen_narrow.err;
  const auto train = run_cli({"train", "--data", tmp_path("wide.csv"),
                              "--features", "12", "--model", tmp_path("w.model"),
                              "--trees", "4", "--depth", "3", "--bins", "16"});
  ASSERT_EQ(train.code, 0) << train.err;

  const auto expect_width_error = [](const CliResult& r, const std::string& what) {
    EXPECT_NE(r.code, 0) << what;
    EXPECT_NE(r.err.find("input has 8 features"), std::string::npos)
        << what << ": " << r.err;
    EXPECT_NE(r.err.find("expects 12"), std::string::npos) << what << ": " << r.err;
  };
  for (const std::string engine : {"compiled", "reference", "resilient"}) {
    expect_width_error(
        run_cli({"predict", "--model", tmp_path("w.model"), "--data",
                 tmp_path("narrow.csv"), "--features", "8", "--out",
                 tmp_path("s.csv"), "--engine", engine}),
        "predict --engine " + engine);
  }
  expect_width_error(run_cli({"evaluate", "--model", tmp_path("w.model"),
                              "--data", tmp_path("narrow.csv"), "--features",
                              "8"}),
                     "evaluate");
}

// Malformed model files end in an error, not a hang or an allocation
// failure: a root whose children point back at itself, and a tree count far
// beyond what the file holds.
TEST_F(CliErrors, MalformedModelCountsAndCyclesAreErrors) {
  const auto gen = run_cli({"generate", "--task", "multiregress", "--n", "20",
                            "--m", "1", "--d", "1", "--seed", "2", "--out",
                            tmp_path("one.csv")});
  ASSERT_EQ(gen.code, 0) << gen.err;
  const std::string body =
      "gbmo-model-v1\ntask multiregress 1\nfeatures 1 4\ncuts 1 0.5\n";
  {
    std::ofstream os(tmp_path("cycle.model"));
    os << body << "trees 1\ntree 3 2\nnode 0 0 0.5 0 0 -1 1 10 1\n"
       << "node -1 -1 0 -1 -1 0 0 5 1\nnode -1 -1 0 -1 -1 1 0 5 1\n"
       << "leaves -1 1\n";
  }
  {
    std::ofstream os(tmp_path("huge.model"));
    os << body << "trees 2000000000\n";
  }
  for (const char* name : {"cycle.model", "huge.model"}) {
    const auto r = run_cli({"predict", "--model", tmp_path(name), "--data",
                            tmp_path("one.csv"), "--features", "1", "--task",
                            "multiregress", "--outputs", "1", "--out",
                            tmp_path("s.csv")});
    EXPECT_EQ(r.code, 1) << name;
    EXPECT_NE(r.err.find("failed to load model"), std::string::npos)
        << name << ": " << r.err;
    EXPECT_EQ(r.err.find("bad_alloc"), std::string::npos) << name << ": " << r.err;
  }
}

TEST_F(CliErrors, NegativeDeviceBudgetIsRejected) {
  const auto r = run_cli({"train", "--data", tmp_path("none.csv"), "--features",
                          "8", "--model", tmp_path("m.model"),
                          "--max-device-mb", "-1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--max-device-mb must be >= 0"), std::string::npos)
      << r.err;
}

TEST(CliBench, RunsNamedReplica) {
  const auto bench = run_cli({"bench", "--dataset", "RF1", "--system", "ours",
                              "--trees", "3", "--bins", "32"});
  ASSERT_EQ(bench.code, 0) << bench.err;
  EXPECT_NE(bench.out.find("modeled device time"), std::string::npos);
  EXPECT_NE(bench.out.find("test rmse"), std::string::npos);
}

TEST_F(CliGenerate, LibsvmFormatRoundTrips) {
  const auto gen = run_cli({"generate", "--task", "multiregress", "--n", "100",
                            "--m", "6", "--d", "2", "--sparsity", "0.5",
                            "--format", "libsvm", "--out", tmp_path("r.svm")});
  ASSERT_EQ(gen.code, 0) << gen.err;
  const auto train = run_cli({"train", "--data", tmp_path("r.svm"), "--format",
                              "libsvm", "--task", "multiregress", "--outputs",
                              "2", "--features", "6", "--model",
                              tmp_path("r.model"), "--trees", "5", "--bins",
                              "16"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("train rmse"), std::string::npos);
}

}  // namespace
}  // namespace gbmo::cli
