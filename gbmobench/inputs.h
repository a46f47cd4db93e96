// Input helpers shared by the workloads: seeded samples and splits of a
// fixed population, and the serialized form models are compared in.
//
// Each workload draws its rows from a population generated with a fixed
// generator seed, and --seed chooses which rows. The synthetic generators
// draw the problem itself (class centres, feature-to-output maps) from their
// seed; drawing it per run would make every run a different problem, with
// different tree shapes and costs, where the benchmark wants another sample
// of the same one.
#pragma once

#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/booster.h"
#include "core/metrics.h"
#include "core/model_io.h"
#include "data/matrix.h"

namespace gbmobench {

struct Split {
  gbmo::data::Dataset train;
  gbmo::data::Dataset holdout;
};

inline gbmo::data::Dataset take_rows(const gbmo::data::Dataset& full,
                                     const std::vector<std::uint32_t>& rows) {
  gbmo::data::Dataset d;
  d.name = full.name;
  d.x = gbmo::data::DenseMatrix(rows.size(), full.n_features());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto src = full.x.row(rows[i]);
    std::copy(src.begin(), src.end(), d.x.row(i).begin());
  }
  d.y = full.y.subset(rows);
  return d;
}

inline std::vector<std::uint32_t> row_range(std::size_t begin, std::size_t end) {
  std::vector<std::uint32_t> rows(end - begin);
  std::iota(rows.begin(), rows.end(), static_cast<std::uint32_t>(begin));
  return rows;
}

// Every row index of a population of `n`, in an order set by `seed`.
inline std::vector<std::uint32_t> shuffled_rows(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> order = row_range(0, n);
  gbmo::Rng rng(seed);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::swap(order[i], order[i + rng.next_below(n - i)]);
  }
  return order;
}

// `n` distinct rows of `population`, chosen and ordered by `seed`.
inline gbmo::data::Dataset sample_rows(const gbmo::data::Dataset& population,
                                       std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> order = shuffled_rows(population.n_instances(), seed);
  order.resize(n);
  return take_rows(population, order);
}

// `n_train` rows of `population` chosen by `seed` train; all the others are
// held out.
inline Split seeded_split(const gbmo::data::Dataset& population, std::size_t n_train,
                          std::uint64_t seed) {
  const std::vector<std::uint32_t> order = shuffled_rows(population.n_instances(), seed);
  return {take_rows(population, {order.begin(), order.begin() + n_train}),
          take_rows(population, {order.begin() + n_train, order.end()})};
}

inline std::string model_text(const gbmo::core::Model& model) {
  std::ostringstream os;
  gbmo::core::write_model(os, model);
  return os.str();
}

// Held-out RMSE: of the predicted class probabilities against the one-hot
// labels for a multiclass model (the root Brier score, which varies far less
// with the training sample than the misclassification rate), of the raw
// outputs for a regression model.
inline double holdout_rmse(const gbmo::core::Model& model,
                           const gbmo::data::Dataset& holdout) {
  return gbmo::core::rmse(model.predict_proba(holdout.x), holdout.y);
}

}  // namespace gbmobench
