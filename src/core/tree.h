// Decision tree with d-dimensional leaf vectors (Figure 1, right side).
//
// Internal nodes route on "bin <= split_bin goes left" during training and on
// the equivalent raw threshold "value <= threshold goes left" at inference;
// leaves carry a d-dimensional value vector v_j (already scaled by the
// learning rate when the grower finalizes them).
//
// Missing values: quantization sends NaN to bin 0 (BinCuts::bin_for is a
// lower_bound, and every comparison against NaN is false), so a trained
// split always routes missing values LEFT. Raw-value inference must not
// rely on `NaN <= threshold` (false -> right); every traversal consults the
// node's default_left flag instead, keeping train-time and predict-time
// routing identical.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"

namespace gbmo::core {

struct TreeNode {
  std::int32_t feature = -1;     // -1 => leaf
  std::int32_t split_bin = -1;   // bins <= split_bin go left
  float threshold = 0.0f;        // raw-value equivalent of split_bin
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::int32_t leaf_offset = -1; // index into leaf_values (in d-strides)
  float gain = 0.0f;
  std::uint32_t n_instances = 0;
  // Missing-value routing: NaN goes to `left` when set (always true for
  // trees grown on quantized bins — NaN lands in bin 0). Persisted by
  // model_io; files without the flag read as left.
  bool default_left = true;

  bool is_leaf() const { return feature < 0; }
};

class Tree {
 public:
  explicit Tree(int n_outputs = 1) : n_outputs_(n_outputs) {}

  int n_outputs() const { return n_outputs_; }
  std::size_t n_nodes() const { return nodes_.size(); }
  std::size_t n_leaves() const { return n_leaves_; }
  int max_depth_reached() const { return max_depth_; }

  const TreeNode& node(std::size_t i) const { return nodes_[i]; }
  TreeNode& node(std::size_t i) { return nodes_[i]; }
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  // --- construction (used by the grower and the model loader) -------------
  std::int32_t add_root(std::uint32_t n_instances);
  // Turns `node_id` into an internal node and returns {left, right} ids.
  std::pair<std::int32_t, std::int32_t> split_node(std::int32_t node_id,
                                                   std::int32_t feature,
                                                   std::int32_t split_bin,
                                                   float threshold, float gain,
                                                   std::uint32_t n_left,
                                                   std::uint32_t n_right,
                                                   int depth_of_children);
  // Finalizes `node_id` as a leaf with the given d values.
  void set_leaf(std::int32_t node_id, std::span<const float> values);

  std::span<const float> leaf_values(const TreeNode& n) const {
    GBMO_DCHECK(n.is_leaf() && n.leaf_offset >= 0);
    return {leaf_values_.data() + static_cast<std::size_t>(n.leaf_offset),
            static_cast<std::size_t>(n_outputs_)};
  }
  std::span<const float> all_leaf_values() const { return leaf_values_; }

  // Traverses by raw feature values; returns the leaf node id. The one
  // raw-value traversal of this layout: every scalar and device path over
  // Tree calls it. `levels`, when given, receives the number of internal
  // nodes walked (the device path charges per level).
  std::int32_t find_leaf(std::span<const float> x_row,
                         int* levels = nullptr) const {
    GBMO_CHECK(!nodes_.empty());
    std::int32_t id = 0;
    int walked = 0;
    while (!nodes_[static_cast<std::size_t>(id)].is_leaf()) {
      const auto& n = nodes_[static_cast<std::size_t>(id)];
      const float v = x_row[static_cast<std::size_t>(n.feature)];
      // NaN must follow the node's default direction; `v <= threshold` alone
      // would send it right, diverging from the binned training partition.
      const bool go_left = std::isnan(v) ? n.default_left : v <= n.threshold;
      id = go_left ? n.left : n.right;
      ++walked;
    }
    if (levels != nullptr) *levels = walked;
    return id;
  }

  // Traverses by precomputed bin ids (bin(r, f) callback).
  template <typename BinFn>
  std::int32_t find_leaf_binned(BinFn&& bin_of_feature) const {
    std::int32_t id = 0;
    while (!nodes_[static_cast<std::size_t>(id)].is_leaf()) {
      const auto& n = nodes_[static_cast<std::size_t>(id)];
      id = bin_of_feature(n.feature) <= n.split_bin ? n.left : n.right;
    }
    return id;
  }

  // Serialization hooks for model_io.
  void set_raw(std::vector<TreeNode> nodes, std::vector<float> leaf_values,
               int n_outputs);
  std::span<const TreeNode> raw_nodes() const { return nodes_; }

 private:
  int n_outputs_;
  int max_depth_ = 0;
  std::size_t n_leaves_ = 0;
  std::vector<TreeNode> nodes_;
  std::vector<float> leaf_values_;
};

}  // namespace gbmo::core
