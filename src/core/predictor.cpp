#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "sim/launch.h"

namespace gbmo::core {

void update_scores_from_leaves(sim::Device& dev, const Tree& tree,
                               std::span<const std::int32_t> leaf_of_row,
                               std::span<float> scores, bool apply) {
  const int d = tree.n_outputs();
  const std::size_t n = leaf_of_row.size();
  GBMO_CHECK(scores.size() == n * static_cast<std::size_t>(d));

  constexpr int kBlock = 256;
  // The applying launch increments scores in place, so a faulted attempt may
  // leave some rows updated. Restage-on-retry: snapshot the scores when a
  // fault plan is armed and restore before every attempt (the first
  // attempt's restore is an identical copy — a no-op functionally).
  std::vector<float> staged;
  if (apply && sim::sim_faults_enabled()) {
    staged.assign(scores.begin(), scores.end());
  }
  sim::with_retry(dev, [&] {
  if (!staged.empty()) std::copy(staged.begin(), staged.end(), scores.begin());
  sim::launch(dev, "update_scores", std::max(1, sim::blocks_for(n, kBlock)),
              kBlock, [&](sim::BlockCtx& blk) {
    // Checked view (race/memory checker; non-counting — the bulk stats
    // below stay the profile of record): the writes are block-partitioned
    // by instance, which the checker verifies.
    auto scores_v = blk.global_view(scores, "scores");
    blk.threads([&](int tid) {
      const std::size_t i = static_cast<std::size_t>(blk.block_id()) * kBlock +
                            static_cast<std::size_t>(tid);
      if (i >= n) return;
      const std::int32_t leaf = leaf_of_row[i];
      GBMO_DCHECK(leaf >= 0);
      const auto values = tree.leaf_values(tree.node(static_cast<std::size_t>(leaf)));
      if (apply) {
        const std::size_t off = i * static_cast<std::size_t>(d);
        for (int k = 0; k < d; ++k) {
          scores_v.add(off + static_cast<std::size_t>(k),
                       values[static_cast<std::size_t>(k)]);
        }
      }
      auto& s = blk.stats();
      s.gmem_coalesced_bytes += sizeof(std::int32_t) +
                                static_cast<std::uint64_t>(d) * 3 * sizeof(float);
      s.gmem_random_accesses += 1;  // leaf-vector gather
      s.flops += static_cast<std::uint64_t>(d);
    });
  });
  });
}

namespace {

// Traverses one tree for one instance, charging one random access per level;
// returns the reached leaf id and its d-wide value vector (the caller
// accumulates the values, through a checked view where the target is
// cross-block state). NaN feature values follow the node's default_left
// flag, matching the bin-0 routing of the quantized training partition.
struct TraverseResult {
  std::int32_t leaf = -1;
  std::span<const float> values;
};

inline TraverseResult traverse(const Tree& tree, std::span<const float> row,
                               sim::KernelStats& s) {
  std::int32_t id = 0;
  int levels = 0;
  while (!tree.node(static_cast<std::size_t>(id)).is_leaf()) {
    const auto& nd = tree.node(static_cast<std::size_t>(id));
    const float v = row[static_cast<std::size_t>(nd.feature)];
    const bool go_left = std::isnan(v) ? nd.default_left : v <= nd.threshold;
    id = go_left ? nd.left : nd.right;
    ++levels;
  }
  TraverseResult out;
  out.leaf = id;
  out.values = tree.leaf_values(tree.node(static_cast<std::size_t>(id)));
  s.gmem_random_accesses += static_cast<std::uint64_t>(levels) * 2 + 1;
  s.gmem_coalesced_bytes += out.values.size() * 2 * sizeof(float);
  s.flops += out.values.size();
  return out;
}

}  // namespace

void predict_scores_device(sim::Device& dev, std::span<const Tree> trees,
                           const data::DenseMatrix& x, std::span<float> scores,
                           bool tree_parallel) {
  // Zero-tree models (early stop at round 0, staged prefix 0) predict the
  // additive identity, not an abort.
  if (trees.empty()) {
    std::fill(scores.begin(), scores.end(), 0.0f);
    return;
  }
  const int d = trees.front().n_outputs();
  const std::size_t n = x.n_rows();
  GBMO_CHECK(scores.size() == n * static_cast<std::size_t>(d));
  std::fill(scores.begin(), scores.end(), 0.0f);

  constexpr int kBlock = 256;
  const int chunks = std::max(1, sim::blocks_for(n, kBlock));

  if (tree_parallel) {
    // One launch; blocks cover (tree, instance-chunk) pairs so all trees run
    // concurrently. Scores are accumulated with atomics on real hardware;
    // each block stages its chunk's leaf values privately and adds them to
    // the shared scores under blk.commit(), so the accumulation order is
    // block-id-deterministic for any --sim-threads value.
    const int grid = static_cast<int>(trees.size()) * chunks;
    // Restage-on-retry: scores start zero-filled, so re-zeroing before every
    // attempt makes a retried launch bit-identical to a clean one.
    sim::with_retry(dev, [&] {
    std::fill(scores.begin(), scores.end(), 0.0f);
    sim::launch(dev, "predict_trees", grid, kBlock, [&](sim::BlockCtx& blk) {
      const std::size_t t = static_cast<std::size_t>(blk.block_id()) /
                            static_cast<std::size_t>(chunks);
      const std::size_t chunk = static_cast<std::size_t>(blk.block_id()) %
                                static_cast<std::size_t>(chunks);
      const std::size_t row_lo = chunk * kBlock;
      const std::size_t row_hi = std::min(n, row_lo + kBlock);
      std::vector<float> local(
          (row_hi > row_lo ? row_hi - row_lo : 0) * static_cast<std::size_t>(d),
          0.0f);
      // Blocks covering the same instance chunk for different trees all
      // accumulate into the same score words: cross-block shared state,
      // staged privately and flushed under commit (checker-verified).
      auto scores_v = blk.global_view(scores, "scores");
      blk.threads([&](int tid) {
        const std::size_t i = row_lo + static_cast<std::size_t>(tid);
        if (i >= n) return;
        const auto values = traverse(trees[t], x.row(i), blk.stats()).values;
        float* dst = local.data() + (i - row_lo) * static_cast<std::size_t>(d);
        for (std::size_t k = 0; k < values.size(); ++k) dst[k] += values[k];
        blk.stats().atomic_global_ops += static_cast<std::uint64_t>(d) / 4 + 1;
      });
      blk.commit([&] {
        for (std::size_t i = row_lo; i < row_hi; ++i) {
          const std::size_t off = i * static_cast<std::size_t>(d);
          const float* src = local.data() + (i - row_lo) * static_cast<std::size_t>(d);
          for (int k = 0; k < d; ++k) {
            scores_v.atomic_add(off + static_cast<std::size_t>(k), src[k]);
          }
        }
      });
    });
    });
    return;
  }

  // Instance-parallel: one launch per tree, one thread per instance. Score
  // writes are block-partitioned (disjoint rows), so they may bypass commit
  // — the checked view verifies exactly that. Each per-tree launch adds into
  // the running totals, so retries snapshot/restore the scores around the
  // faulted tree (only when a fault plan is armed).
  std::vector<float> staged;
  for (const auto& tree : trees) {
    if (sim::sim_faults_enabled()) staged.assign(scores.begin(), scores.end());
    sim::with_retry(dev, [&] {
    if (!staged.empty()) std::copy(staged.begin(), staged.end(), scores.begin());
    sim::launch(dev, "predict_trees", chunks, kBlock, [&](sim::BlockCtx& blk) {
      auto scores_v = blk.global_view(scores, "scores");
      blk.threads([&](int tid) {
        const std::size_t i = static_cast<std::size_t>(blk.block_id()) * kBlock +
                              static_cast<std::size_t>(tid);
        if (i >= n) return;
        const auto values = traverse(tree, x.row(i), blk.stats()).values;
        const std::size_t off = i * static_cast<std::size_t>(d);
        for (std::size_t k = 0; k < values.size(); ++k) {
          scores_v.add(off + k, values[k]);
        }
      });
    });
    });
  }
}

std::vector<float> predict_scores(std::span<const Tree> trees,
                                  const data::DenseMatrix& x, int n_outputs) {
  std::vector<float> scores(x.n_rows() * static_cast<std::size_t>(n_outputs), 0.0f);
  for (const auto& tree : trees) {
    GBMO_CHECK(tree.n_outputs() == n_outputs);
    for (std::size_t i = 0; i < x.n_rows(); ++i) {
      const auto leaf = tree.find_leaf(x.row(i));
      const auto values = tree.leaf_values(tree.node(static_cast<std::size_t>(leaf)));
      float* dst = scores.data() + i * static_cast<std::size_t>(n_outputs);
      for (int k = 0; k < n_outputs; ++k) dst[k] += values[static_cast<std::size_t>(k)];
    }
  }
  return scores;
}

}  // namespace gbmo::core
