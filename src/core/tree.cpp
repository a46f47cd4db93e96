#include "core/tree.h"

#include <algorithm>

namespace gbmo::core {

std::int32_t Tree::add_root(std::uint32_t n_instances) {
  GBMO_CHECK(nodes_.empty()) << "root already exists";
  TreeNode root;
  root.n_instances = n_instances;
  nodes_.push_back(root);
  return 0;
}

std::pair<std::int32_t, std::int32_t> Tree::split_node(
    std::int32_t node_id, std::int32_t feature, std::int32_t split_bin,
    float threshold, float gain, std::uint32_t n_left, std::uint32_t n_right,
    int depth_of_children) {
  GBMO_CHECK(node_id >= 0 && static_cast<std::size_t>(node_id) < nodes_.size());
  GBMO_CHECK(feature >= 0);

  const std::int32_t left = static_cast<std::int32_t>(nodes_.size());
  const std::int32_t right = left + 1;
  TreeNode l, r;
  l.n_instances = n_left;
  r.n_instances = n_right;
  nodes_.push_back(l);
  nodes_.push_back(r);

  TreeNode& n = nodes_[static_cast<std::size_t>(node_id)];
  n.feature = feature;
  n.split_bin = split_bin;
  n.threshold = threshold;
  n.gain = gain;
  n.left = left;
  n.right = right;
  max_depth_ = std::max(max_depth_, depth_of_children);
  return {left, right};
}

void Tree::set_leaf(std::int32_t node_id, std::span<const float> values) {
  GBMO_CHECK(node_id >= 0 && static_cast<std::size_t>(node_id) < nodes_.size());
  GBMO_CHECK(values.size() == static_cast<std::size_t>(n_outputs_));
  TreeNode& n = nodes_[static_cast<std::size_t>(node_id)];
  GBMO_CHECK(n.is_leaf()) << "cannot turn an internal node into a leaf";
  GBMO_CHECK(n.leaf_offset < 0) << "leaf already finalized";
  n.leaf_offset = static_cast<std::int32_t>(leaf_values_.size());
  leaf_values_.insert(leaf_values_.end(), values.begin(), values.end());
  ++n_leaves_;
}

void Tree::set_raw(std::vector<TreeNode> nodes, std::vector<float> leaf_values,
                   int n_outputs) {
  nodes_ = std::move(nodes);
  leaf_values_ = std::move(leaf_values);
  n_outputs_ = n_outputs;
  n_leaves_ = 0;
  GBMO_CHECK(!nodes_.empty()) << "a tree needs a root node";
  // Children come after their parent (as split_node appends them), so every
  // traversal moves to a higher id and ends at a leaf: no cycles.
  const auto n_nodes = static_cast<std::int64_t>(nodes_.size());
  for (std::int64_t id = 0; id < n_nodes; ++id) {
    const auto& n = nodes_[static_cast<std::size_t>(id)];
    if (n.is_leaf()) {
      GBMO_CHECK(n.leaf_offset >= 0 &&
                 static_cast<std::size_t>(n.leaf_offset) + n_outputs_ <=
                     leaf_values_.size());
      ++n_leaves_;
    } else {
      GBMO_CHECK(n.left > id && n.left < n_nodes && n.right > id &&
                 n.right < n_nodes)
          << "node " << id << " has children " << n.left << ", " << n.right
          << " outside (" << id << ", " << n_nodes << ")";
    }
  }
  // Recompute the depth (construction tracks it; raw loads must rebuild it).
  max_depth_ = 0;
  std::vector<std::pair<std::int32_t, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    max_depth_ = std::max(max_depth_, depth);
    const auto& n = nodes_[static_cast<std::size_t>(id)];
    if (!n.is_leaf()) {
      stack.push_back({n.left, depth + 1});
      stack.push_back({n.right, depth + 1});
    }
  }
}

}  // namespace gbmo::core
