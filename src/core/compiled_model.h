// Compiled batched inference (§3.4.2 extended): the serving-side counterpart
// of the training pipeline.
//
// A trained model is a forest of pointer-y Tree objects — fine for training
// (which never re-traverses, §3.1.1) but wrong for heavy prediction traffic:
// every level costs two scattered loads through a 32-byte training node that
// drags split_bin / gain / n_instances along, and the reference device path
// launches one kernel per tree.
//
// CompiledModel flattens the whole forest once into structure-of-arrays form
// (the layout trick XGBoost's GPU predictor uses): per node, the routing
// fields only — feature, threshold, default-left bit, left/right child —
// as parallel flat arrays with *absolute* node ids, plus every leaf value
// vector pooled in one contiguous buffer. Trees stay self-contained slabs
// ([node_base[t], node_base[t+1])), so a block can stage a whole group of
// trees into shared memory with coalesced loads and traverse on-chip.
//
// predict_compiled is the batched kernel: the grid tiles (tree-group ×
// row-chunk) blocks, tree groups sized so the group's node slabs fit the
// device's shared memory. Each block routes its 256 rows through its staged
// trees, records the reached leaf offsets, and flushes score updates under
// blk.commit() one tree at a time in ascending tree order — which makes the
// result bit-identical to the scalar reference predict_scores() at any
// --sim-threads value. Missing values route by the default-left bit, the
// same rule the binned training partition applies (NaN -> bin 0 -> left).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/tree.h"
#include "data/matrix.h"
#include "sim/device.h"

namespace gbmo::core {

class CompiledModel {
 public:
  CompiledModel() = default;

  // Flattens `trees` (forest of d-output trees) into SoA form. An empty
  // forest compiles to an empty model that predicts all-zero scores.
  static CompiledModel compile(std::span<const Tree> trees, int n_outputs);

  int n_outputs() const { return n_outputs_; }
  std::size_t n_trees() const { return tree_node_base_.empty() ? 0 : tree_node_base_.size() - 1; }
  std::size_t n_nodes() const { return feature_.size(); }
  bool empty() const { return n_trees() == 0; }

  std::span<const float> leaf_pool() const { return leaf_pool_; }
  // First node id of tree t; node_base(n_trees()) == n_nodes().
  std::int32_t node_base(std::size_t t) const { return tree_node_base_[t]; }

  // Bytes a group of trees [t_lo, t_hi) occupies when staged in shared
  // memory (the four hot 4-byte arrays + the default-left bitset).
  std::size_t group_slab_bytes(std::size_t t_lo, std::size_t t_hi) const;

  // The one traversal of the SoA layout: walks tree t for one row and
  // returns the absolute offset of the reached leaf's value vector in
  // leaf_pool() and the number of internal nodes walked. NaN follows the
  // node's default-left bit.
  struct Leaf {
    std::int32_t offset;
    int levels;
  };
  Leaf traverse(std::size_t t, std::span<const float> row) const {
    auto id = static_cast<std::size_t>(tree_node_base_[t]);
    int levels = 0;
    while (feature_[id] >= 0) {
      const float v = row[static_cast<std::size_t>(feature_[id])];
      const bool go_left = std::isnan(v) ? default_left(id) : v <= threshold_[id];
      id = static_cast<std::size_t>(go_left ? left_[id] : right_[id]);
      ++levels;
    }
    return {leaf_offset_[id], levels};
  }

 private:
  bool default_left(std::size_t node) const {
    return (default_left_[node >> 5] >> (node & 31u)) & 1u;
  }

  int n_outputs_ = 0;
  std::vector<std::int32_t> feature_;
  std::vector<float> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<std::int32_t> leaf_offset_;
  std::vector<std::uint32_t> default_left_;  // 1 bit per node
  std::vector<std::int32_t> tree_node_base_;  // size n_trees + 1
  std::vector<float> leaf_pool_;
};

// Batched compiled inference: one launch tiling (tree-group × row-chunk)
// blocks; scores ([i * d + k] layout) are zeroed and then accumulated in
// ascending tree order per score word under blk.commit(), so results are
// bit-identical to predict_scores for every --sim-threads. A zero-tree
// model yields all-zero scores.
void predict_compiled(sim::Device& dev, const CompiledModel& model,
                      const data::DenseMatrix& x, std::span<float> scores);

}  // namespace gbmo::core
