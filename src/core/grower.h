// Tree construction on the simulated device group (the paper's Algorithm 1):
// build or derive every node histogram, select splits in a batch, partition.
//
// One implementation serves each of those jobs:
// - build_node_histogram is the only histogram-build path. It covers the
//   plain bin matrix and the EFB-bundled one (data/bundling.h: bundled
//   columns are accumulated, then expanded back to the per-feature layout,
//   so split selection, subtraction and the Tree never see bundles), in
//   feature-parallel and row-partitioned device modes.
// - subtract_node_histograms derives the larger child as parent − smaller.
// - expand_node is the node-expansion step: stable partition (count-checked),
//   Tree::split_node, and the two children with their totals (smaller
//   reduced, larger = parent − smaller).
// - A histogram pool (grower.cpp) is the device-memory ledger for pooled and
//   scratch node histograms under config.hist_budget_mb. When the pool is
//   full the grower builds nodes in reusable scratch buffers, losing
//   subtraction but bounding peak memory: the mechanism behind "avoids
//   out-of-memory failures" in Figure 7.
// - redistribute_over_alive holds the one column/row partition rule.
//
// Two growth policies drive these steps and differ only where DESIGN.md §11
// says they must: which nodes expand in a round (a whole level vs the
// best-gain leaf, ties to the lowest node id), the partition and broadcast
// cadence (one launch per level vs one per split), the budget rule (a
// level's histograms at once vs one at a time), the lone-child rule
// (leaf-wise builds an ineligible smaller child to derive its sibling) and
// the CSC level sweep (level-wise only).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/histogram.h"
#include "core/split.h"
#include "core/tree.h"
#include "data/bundling.h"
#include "data/paged_dataset.h"
#include "data/quantize.h"
#include "sim/collectives.h"

namespace gbmo::core {

// Per-booster immutable state shared by all trees.
struct GrowerContext {
  const data::BinnedMatrix* bins = nullptr;
  const data::BinCuts* cuts = nullptr;
  // Optional CSC view of `bins` (set by the booster when
  // config.csc_level_sweep is on); enables the §3.2 level-sweep build path.
  const data::BinnedCscMatrix* csc = nullptr;
  HistogramLayout layout;
  TrainConfig config;
  // Exclusive feature bundling (set by the booster via apply_bundling when
  // config.efb finds mergeable features): the bundled bin matrix and its
  // histogram layout (zero bin 0 per bundle = the shared default).
  const data::FeatureBundling* bundling = nullptr;
  const data::BinnedMatrix* bundled_bins = nullptr;
  HistogramLayout bundle_layout;

  // Histogram pool budget in bytes (from config.hist_budget_mb).
  std::size_t hist_pool_budget = 512ull << 20;

  // Out-of-core mode (set by the booster when config.out_of_core_enabled()):
  // the tile partition of `bins`. When non-null the grower stages every
  // feature column it is about to read into a per-device block cache; the
  // staging transfers are charged to the cost model but the kernels still
  // read `bins` directly, so models are bitwise identical at any budget.
  const data::PagedDataset* paged = nullptr;

  static GrowerContext create(const data::BinnedMatrix& bins,
                              const data::BinCuts& cuts, int n_outputs,
                              const TrainConfig& config);

  // Installs an EFB plan and builds the bundle layout. The grower then
  // partitions columns bundle-aligned (see redistribute_over_alive).
  void apply_bundling(const data::FeatureBundling& plan,
                      const data::BinnedMatrix& bundled);
};

struct GrownTree {
  Tree tree;
  // Tree node id of the leaf every training row landed in — lets the booster
  // update predictions with a gather instead of re-traversing (§3.1.1).
  std::vector<std::int32_t> leaf_of_row;
};

class TreeGrower {
 public:
  TreeGrower(sim::DeviceGroup& group, const GrowerContext& ctx);

  // Grows one tree from the gradient arrays ([row * d + k] layout).
  // `sampled_rows` restricts training to a row subset (stochastic boosting);
  // empty means all rows. `sampled_features` restricts the split search
  // (colsample_bytree); empty means all features. Rows outside the sample
  // get leaf_of_row == -1 — the booster routes them by traversal.
  GrownTree grow(std::span<const float> g, std::span<const float> h,
                 std::span<const std::uint32_t> sampled_rows = {},
                 std::span<const std::uint32_t> sampled_features = {});

  // Name of the histogram strategy chosen for the most recent build
  // (reporting/ablation).
  const HistogramBuilder& builder() const { return *builder_; }

  // Partitions the columns and the row shards over the alive devices (the
  // constructor runs it over the full group). Columns are contiguous
  // chunks of features, or of whole bundles when an EFB plan is set, so
  // the device that accumulates a bundled column also owns its expanded
  // features for split search; rows are even contiguous shards. A lost
  // device gets no columns and a zero-width row range. Device-loss
  // failover (sim/faults.h) calls it after a device or node is marked lost,
  // so the next grow() (the retry of the interrupted tree) runs on the
  // survivors. Requires at least one alive device.
  void redistribute_over_alive();

  // Voting-parallel diagnostics: rounds where the canonical best feature was
  // not among the globally-elected columns (the voting approximation's
  // honesty metric — a miss means a real voting run would have picked a
  // different split here).
  std::uint64_t vote_rounds() const { return vote_rounds_; }
  std::uint64_t vote_misses() const { return vote_misses_; }

  // Aggregate block-cache stats across devices (out-of-core mode; all zeros
  // when ctx.paged is null). See data/paged_dataset.h.
  data::BlockCacheStats paging_stats() const;

 private:
  struct ActiveNode {
    std::int32_t tree_node = -1;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::vector<sim::GradPair> totals;  // d sums
    std::int32_t parent = -1;           // parent tree node (-1 for root)
    std::int32_t sibling = -1;          // sibling tree node
    bool is_smaller = true;             // smaller sibling builds directly
    std::uint32_t count() const { return end - begin; }
  };

  // Leaf-wise frontier entry: a splittable leaf with its precomputed best
  // split; the histogram is kept only while the pool budget allows it (a
  // candidate without one loses sibling subtraction for its children — the
  // leaf-wise face of the one-node-at-a-time fallback).
  struct LeafCandidate {
    ActiveNode node;
    int depth = 0;
    SplitResult split;
    std::unique_ptr<NodeHistogram> hist;
  };

  // What expand_node hands back: the two children, smaller first, and the
  // stats of the partition kernel that split their rows.
  struct Children {
    ActiveNode smaller;
    ActiveNode larger;
    sim::KernelStats partition;
  };

  void grow_level_wise(std::span<const float> g, std::span<const float> h,
                       std::vector<std::uint32_t>& row_order, Tree& tree,
                       GrownTree& out, ActiveNode&& root);
  void grow_leaf_wise(std::span<const float> g, std::span<const float> h,
                      std::vector<std::uint32_t>& row_order, Tree& tree,
                      GrownTree& out, ActiveNode&& root);

  // A node at `depth` may split: below max_depth, and enough rows for two
  // children of min_instances_per_node.
  bool splittable(const ActiveNode& node, int depth) const;

  // The node-expansion step both policies share: stages and stable-
  // partitions `a`'s rows by `s` (count-checked), adds the two children at
  // `child_depth` to `tree`, and fills their totals. With `charge_now` the
  // partition kernel is charged before the child-total reduction (leaf-wise,
  // one launch per split); otherwise the caller sums a level's returned
  // stats into one launch (level-wise). The fingerprint test pins the order.
  Children expand_node(const ActiveNode& a, const SplitResult& s,
                       int child_depth, bool charge_now,
                       std::span<const float> g, std::span<const float> h,
                       std::vector<std::uint32_t>& row_order, Tree& tree);
  // Charges one partition_rows launch over st.gmem_random_accesses rows, plus
  // the feature-parallel left/right bitmap broadcast.
  void charge_partition(sim::KernelStats st);

  // The one histogram-build path: accumulates `node` over its rows in
  // `row_order` into `out` (original per-feature layout), on the plain or
  // the EFB-bundled bin matrix, in every device mode.
  void build_node_histogram(const ActiveNode& node,
                            std::span<const std::uint32_t> row_order,
                            NodeHistogram& out, std::span<const float> g,
                            std::span<const float> h);
  // Host-side best-feature scan over a (partial or full) histogram,
  // mirroring the split kernel's gain formula. Used for the voting-parallel
  // local top-k nomination and the canonical-winner miss metric; the model
  // itself never depends on it.
  int best_local_feature(const NodeHistogram& hist,
                         std::span<const sim::GradPair> totals,
                         std::uint32_t count) const;
  // Voting-parallel: nominate this device's local top-k features from its
  // partial histogram into vote_tally_ (and charge the local gain scan).
  void accumulate_local_votes(sim::Device& dev, const NodeHistogram& part,
                              std::span<const sim::GradPair> dev_totals,
                              std::uint32_t dev_count);
  // Charges the histogram exchange for the row-partitioned modes: a full
  // hierarchical all-reduce (data-parallel), or the vote election + only the
  // elected columns over the inter-node link (voting-parallel). Also updates
  // the vote-miss diagnostics from the canonical histogram `out`.
  void charge_histogram_exchange(const ActiveNode& node,
                                 const NodeHistogram& out);
  SplitResult select_split(const ActiveNode& node, const NodeHistogram& hist);
  // Batched selection (one scan/gain/reduction kernel set per call, §3.1.3);
  // inputs[i] corresponds to nodes[i]. Level-wise batches a whole level,
  // leaf-wise batches one split's two children.
  std::vector<SplitResult> select_splits(std::span<const NodeSplitInput> inputs);
  void compute_leaf(Tree& tree, const ActiveNode& node,
                    std::span<const std::uint32_t> row_order,
                    std::vector<std::int32_t>& leaf_of_row);
  void flush_leaf_charges();

  // Sibling subtraction over every device that owns features of the node
  // (larger = parent − smaller), shared by both growth policies.
  void subtract_node_histograms(const NodeHistogram& parent,
                                const NodeHistogram& smaller,
                                NodeHistogram& larger);
  // Reduces a node's d gradient totals on every device that needs them
  // (replicated in feature-parallel mode, once in data-parallel mode).
  void reduce_node_totals(std::span<const float> g, std::span<const float> h,
                          std::span<const std::uint32_t> rows,
                          std::vector<sim::GradPair>& totals);

  // Out-of-core staging: pages every tile of `features` × `rows` into device
  // `dev`'s block cache (no-op in in-core mode). Runs on the orchestration
  // thread before the corresponding launch, so transfer charges and fault
  // ordinals are deterministic at any --sim-threads.
  void stage_blocks(int dev, std::span<const std::uint32_t> features,
                    std::span<const std::uint32_t> rows);
  void stage_block(int dev, std::uint32_t feature,
                   std::span<const std::uint32_t> rows);

  // The first alive device (device 0 unless it was lost) — target for the
  // single-device charges (leaf finalize, partition kernel).
  int lead_device() const;

  sim::DeviceGroup& group_;
  const GrowerContext& ctx_;
  std::unique_ptr<HistogramBuilder> builder_;
  // Row-partitioned modes (data/voting): the functional histogram is built
  // once on this off-group "ghost" device in the exact 1-device accumulation
  // order, while the real devices build per-shard partials for the cost
  // model only ("functional canonical, cost modeled" — the same doctrine
  // that makes paging and EFB bitwise-neutral). Same spec as the group's
  // devices so the adaptive builder picks identical strategies; no sink, so
  // its charges never reach the profiler or the group's modeled time.
  std::unique_ptr<sim::Device> ghost_;
  // Scratch for the per-device partial builds (cost path; contents feed only
  // the voting nomination, never the model).
  NodeHistogram part_scratch_;
  // Voting-parallel per-exchange vote tally (indexed by original feature id)
  // and cumulative honesty counters.
  std::vector<std::uint32_t> vote_tally_;
  std::uint64_t vote_rounds_ = 0;
  std::uint64_t vote_misses_ = 0;
  // Per-device block caches (out-of-core mode; empty otherwise).
  std::vector<std::unique_ptr<data::BlockCache>> block_caches_;
  SplitScratch split_scratch_;
  // Live partition (redistribute_over_alive): per-device feature columns,
  // bundle columns (EFB only) and row shard boundaries (size n_devices + 1).
  std::vector<std::vector<std::uint32_t>> device_features_;
  std::vector<std::vector<std::uint32_t>> device_bundles_;
  std::vector<std::uint32_t> device_row_bounds_;
  // This tree's feature view (all features unless colsample is active, in
  // the booster's ascending order) and its intersection with every device's
  // column partition (for one device: the same list).
  std::vector<std::uint32_t> grow_features_;
  std::vector<std::vector<std::uint32_t>> grow_device_features_;
  // This tree's bundle view (EFB): bundles with at least one sampled member.
  std::vector<std::uint32_t> grow_bundles_;
  std::vector<std::vector<std::uint32_t>> grow_device_bundles_;
  // Scratch for the bundled accumulation pass (EFB).
  NodeHistogram bundle_scratch_;
  // Leaf-value/assignment work is accumulated and charged as one kernel per
  // tree (the real implementation finalizes all leaves in one launch).
  sim::KernelStats pending_leaf_stats_;
  bool has_pending_leaf_charges_ = false;
  // Leaves finalized so far in the current grow() (max_leaves accounting).
  std::size_t finalized_leaves_ = 0;
};

}  // namespace gbmo::core
