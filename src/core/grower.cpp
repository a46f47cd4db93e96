#include "core/grower.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/error.h"
#include "core/gradients.h"
#include "sim/cost_model.h"
#include "sim/launch.h"

namespace gbmo::core {

namespace {

// Histogram ledger charges land on every device of the group.
void note_alloc_all(sim::DeviceGroup& group, std::size_t bytes) {
  for (int i = 0; i < group.size(); ++i) group.device(i).note_alloc(bytes);
}

void note_free_all(sim::DeviceGroup& group, std::size_t bytes) {
  for (int i = 0; i < group.size(); ++i) group.device(i).note_free(bytes);
}

// The node histograms one tree's growth holds, as device-memory ledger
// charges. Pooled histograms count against ctx.hist_pool_budget and are
// refused when sibling subtraction is off (only subtraction needs a
// histogram to outlive its split selection). The two scratch buffers are
// charged once, on first use, and reused for every node that gets no pooled
// histogram.
class HistPool {
 public:
  HistPool(sim::DeviceGroup& group, const GrowerContext& ctx)
      : group_(group),
        layout_(ctx.layout),
        bytes_(ctx.layout.byte_size()),
        budget_(ctx.hist_pool_budget),
        enabled_(ctx.config.sibling_subtraction) {}

  // Charges `n` pooled histograms; false, with nothing charged, when pooling
  // is off or they would exceed the budget.
  bool reserve(std::size_t n) {
    if (!enabled_ || live_ + n * bytes_ > budget_) return false;
    note_alloc_all(group_, n * bytes_);
    live_ += n * bytes_;
    return true;
  }
  void release(std::size_t n) {
    note_free_all(group_, n * bytes_);
    live_ -= n * bytes_;
  }
  // One zeroed pooled histogram, or null when reserve(1) fails.
  std::unique_ptr<NodeHistogram> acquire() {
    if (!reserve(1)) return nullptr;
    auto hist = std::make_unique<NodeHistogram>();
    hist->resize(layout_);
    return hist;
  }
  void drop(std::unique_ptr<NodeHistogram>& hist) {
    if (!hist) return;
    hist.reset();
    release(1);
  }
  // Scratch buffer `i` (0 or 1), zeroed.
  NodeHistogram& scratch(std::size_t i) {
    NodeHistogram& s = scratch_[i];
    if (s.sums.size() != layout_.size()) {
      s.resize(layout_);
      note_alloc_all(group_, bytes_);
    } else {
      s.clear();
    }
    return s;
  }
  // Frees the pooled bytes still held, then the scratch buffers. Explicit,
  // not a destructor: a tree that throws mid-grow (a device loss the booster
  // recovers from) keeps its charges on the ledger, and the reported peak
  // device bytes of a failover run include them.
  void release_all() {
    note_free_all(group_, live_);
    live_ = 0;
    for (const NodeHistogram& s : scratch_) {
      if (s.sums.size() == layout_.size()) note_free_all(group_, bytes_);
    }
  }

 private:
  sim::DeviceGroup& group_;
  const HistogramLayout& layout_;
  const std::size_t bytes_;
  const std::size_t budget_;
  const bool enabled_;
  std::size_t live_ = 0;
  NodeHistogram scratch_[2];
};

}  // namespace

GrowerContext GrowerContext::create(const data::BinnedMatrix& bins,
                                    const data::BinCuts& cuts, int n_outputs,
                                    const TrainConfig& config) {
  GrowerContext ctx;
  ctx.bins = &bins;
  ctx.cuts = &cuts;
  ctx.layout = HistogramLayout(cuts, n_outputs);
  ctx.config = config;
  ctx.hist_pool_budget = static_cast<std::size_t>(
                             std::max(1, config.hist_budget_mb))
                         << 20;
  return ctx;
}

void GrowerContext::apply_bundling(const data::FeatureBundling& plan,
                                   const data::BinnedMatrix& bundled) {
  GBMO_CHECK(bins != nullptr) << "apply_bundling before create";
  GBMO_CHECK(plan.bundle_of_feature.size() == bins->n_cols());
  GBMO_CHECK(bundled.n_rows() == bins->n_rows());
  bundling = &plan;
  bundled_bins = &bundled;

  std::vector<int> bin_counts;
  std::vector<std::uint8_t> zeros;
  bin_counts.reserve(plan.bundles.size());
  zeros.reserve(plan.bundles.size());
  for (const data::FeatureBundle& b : plan.bundles) {
    bin_counts.push_back(b.n_bins);
    zeros.push_back(0);  // bundled bin 0 = all members at their default
  }
  bundle_layout = HistogramLayout(bin_counts, zeros, layout.n_outputs());
}

TreeGrower::TreeGrower(sim::DeviceGroup& group, const GrowerContext& ctx)
    : group_(group), ctx_(ctx), builder_(make_builder(ctx.config.hist_method)) {
  GBMO_CHECK(group.size() == std::max(1, ctx.config.n_devices));
  redistribute_over_alive();
  if (group.size() > 1 &&
      ctx.config.multi_gpu != MultiGpuMode::kFeatureParallel) {
    // Row-partitioned modes build the functional histogram on an off-group
    // ghost device (see the member comment). Its id sits past every real
    // device so scripted fault plans targeting 0..k-1 never hit it.
    ghost_ = std::make_unique<sim::Device>(group.device(0).spec(),
                                           group.size());
  }
  if (ctx.paged != nullptr) {
    const std::size_t budget =
        static_cast<std::size_t>(ctx.config.block_cache_budget_bytes());
    block_caches_.reserve(static_cast<std::size_t>(group.size()));
    for (int i = 0; i < group.size(); ++i) {
      block_caches_.push_back(std::make_unique<data::BlockCache>(
          group.device(i), *ctx.paged, budget));
    }
  }
}

void TreeGrower::stage_blocks(int dev, std::span<const std::uint32_t> features,
                              std::span<const std::uint32_t> rows) {
  if (block_caches_.empty()) return;
  block_caches_[static_cast<std::size_t>(dev)]->stage_features(features, rows);
}

void TreeGrower::stage_block(int dev, std::uint32_t feature,
                             std::span<const std::uint32_t> rows) {
  if (block_caches_.empty()) return;
  block_caches_[static_cast<std::size_t>(dev)]->stage_feature(feature, rows);
}

data::BlockCacheStats TreeGrower::paging_stats() const {
  data::BlockCacheStats total;
  for (const auto& cache : block_caches_) {
    if (cache) total += cache->stats();
  }
  return total;
}

int TreeGrower::lead_device() const {
  return std::max(0, group_.first_alive());
}

void TreeGrower::redistribute_over_alive() {
  std::vector<int> alive;
  for (int i = 0; i < group_.size(); ++i) {
    if (!group_.is_lost(i)) alive.push_back(i);
  }
  GBMO_CHECK(!alive.empty()) << "device-loss failover with no survivors";
  const auto k = static_cast<std::size_t>(group_.size());
  const data::FeatureBundling* plan = ctx_.bundling;

  // Columns: contiguous chunks (better transfer locality than round-robin)
  // of features, or of whole bundles with all their member features.
  const std::size_t units =
      plan != nullptr ? plan->bundles.size() : ctx_.bins->n_cols();
  const std::size_t chunk = (units + alive.size() - 1) / alive.size();
  device_features_.assign(k, {});
  device_bundles_.assign(plan != nullptr ? k : 0, {});
  for (std::size_t a = 0; a < alive.size(); ++a) {
    const auto dev = static_cast<std::size_t>(alive[a]);
    auto& df = device_features_[dev];
    for (std::size_t u = a * chunk; u < std::min(units, (a + 1) * chunk); ++u) {
      if (plan == nullptr) {
        df.push_back(static_cast<std::uint32_t>(u));
        continue;
      }
      device_bundles_[dev].push_back(static_cast<std::uint32_t>(u));
      const auto& members = plan->bundles[u].features;
      df.insert(df.end(), members.begin(), members.end());
    }
    std::sort(df.begin(), df.end());
  }

  // Row shards: the survivors split the full row range evenly; lost devices
  // keep zero-width ranges so the upper_bound owner lookup in the histogram
  // build still lands on a live device.
  const std::size_t n = ctx_.bins->n_rows();
  device_row_bounds_.assign(k + 1, 0);
  std::size_t rank = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!group_.is_lost(static_cast<int>(i))) ++rank;
    device_row_bounds_[i + 1] =
        static_cast<std::uint32_t>(n * rank / alive.size());
  }
}

void TreeGrower::build_node_histogram(const ActiveNode& node,
                                      std::span<const std::uint32_t> row_order,
                                      NodeHistogram& out,
                                      std::span<const float> g,
                                      std::span<const float> h) {
  const auto& cfg = ctx_.config;
  const bool bundled = ctx_.bundling != nullptr;
  group_.set_phase("histogram");
  HistBuildInput in;
  in.g = g;
  in.h = h;
  in.node_totals = node.totals;
  in.node_count = node.count();
  in.node_rows = row_order.subspan(node.begin, node.count());
  // EFB accumulates over the bundled matrix: a plain dense column-major
  // array (warp packing and CSC indirection describe the original storage),
  // whose bin 0 is every bundle's shared all-default bin. Skipping it is
  // exactly the §3.2 sparsity optimization; the per-member zero bins are
  // reconstructed from the node totals during expansion.
  in.bins = bundled ? ctx_.bundled_bins : ctx_.bins;
  in.layout = bundled ? &ctx_.bundle_layout : &ctx_.layout;
  in.packed = !bundled && cfg.warp_opt && ctx_.bins->packed();
  in.sparsity_aware = bundled || cfg.sparsity_aware;
  in.csc_indirection = !bundled && cfg.csc_storage;

  // Builds `dev_in` on `dev` into `dst` in the original layout; EFB builds
  // into the bundle scratch and expands the built bundles into `dst`.
  auto build = [&](sim::Device& dev, const HistBuildInput& dev_in,
                   NodeHistogram& dst) {
    if (!bundled) {
      builder_->build(dev, dev_in, dst);
      return;
    }
    if (bundle_scratch_.sums.size() != ctx_.bundle_layout.size()) {
      bundle_scratch_.resize(ctx_.bundle_layout);
    } else {
      bundle_scratch_.clear();
    }
    builder_->build(dev, dev_in, bundle_scratch_);
    expand_bundled_histogram(dev, *ctx_.bundling, ctx_.bundle_layout,
                             ctx_.layout, dev_in.features, bundle_scratch_,
                             dev_in.node_totals, dev_in.node_count, dst);
  };

  if (group_.size() == 1 || cfg.multi_gpu == MultiGpuMode::kFeatureParallel) {
    // Feature-parallel: each device accumulates its own columns into
    // disjoint slots of the shared histogram (bundle-aligned partitioning
    // keeps the expanded slots disjoint too).
    for (int i = 0; i < group_.size(); ++i) {
      const auto& cols = (bundled ? grow_device_bundles_
                                  : grow_device_features_)[static_cast<std::size_t>(i)];
      if (cols.empty()) continue;
      // Out-of-core: page this device's columns (restricted to the node's
      // rows — GOSS-sampled nodes touch fewer tiles) before the build reads
      // them.
      if (!bundled) stage_blocks(i, cols, in.node_rows);
      HistBuildInput dev_in = in;
      dev_in.features = cols;
      build(group_.device(i), dev_in, out);
    }
    return;
  }

  // Row-partitioned modes (data-parallel / voting-parallel): every live
  // device builds a partial histogram from its own row shard — that compute
  // plus the exchange is what the cost model charges — while the functional
  // histogram is built once on the ghost device in the exact single-device
  // accumulation order ("functional canonical, cost modeled"). That split is
  // what makes the trained model bitwise-identical to a 1-device run despite
  // float non-associativity in the partial merge.
  const auto& cols = bundled ? grow_bundles_ : grow_features_;
  const bool voting = cfg.multi_gpu == MultiGpuMode::kVotingParallel;
  if (voting) vote_tally_.assign(ctx_.bins->n_cols(), 0u);
  const int k = group_.size();
  const int d = ctx_.layout.n_outputs();
  std::vector<std::vector<std::uint32_t>> dev_rows(static_cast<std::size_t>(k));
  for (std::uint32_t r : in.node_rows) {
    // Row ownership by original id range (live bounds: zero-width for lost).
    const auto it = std::upper_bound(device_row_bounds_.begin(),
                                     device_row_bounds_.end(), r);
    const int owner = static_cast<int>(it - device_row_bounds_.begin()) - 1;
    dev_rows[static_cast<std::size_t>(owner)].push_back(r);
  }
  for (int i = 0; i < k; ++i) {
    if (group_.is_lost(i)) continue;
    const auto& rows = dev_rows[static_cast<std::size_t>(i)];
    // Out-of-core: each device pages every feature column, but only the
    // tiles covering its own row partition.
    if (!bundled) stage_blocks(i, grow_features_, rows);
    HistBuildInput dev_in = in;
    dev_in.features = cols;
    dev_in.node_rows = rows;
    dev_in.node_count = static_cast<std::uint32_t>(rows.size());
    // Per-device totals for this device's row subset (needed by the zero-bin
    // reconstruction; the per-device reconstructions sum to the global one).
    std::vector<sim::GradPair> dev_totals(static_cast<std::size_t>(d));
    reduce_gradients(group_.device(i), g, h, rows, d, dev_totals);
    dev_in.node_totals = dev_totals;
    if (part_scratch_.sums.size() != ctx_.layout.size()) {
      part_scratch_.resize(ctx_.layout);
    } else {
      part_scratch_.clear();
    }
    build(group_.device(i), dev_in, part_scratch_);
    if (voting) {
      accumulate_local_votes(group_.device(i), part_scratch_, dev_totals,
                             dev_in.node_count);
    }
  }
  // Canonical functional build on the ghost (same spec as the real devices,
  // so the adaptive builder makes identical choices; its charges stay off
  // the group's books and the profiler).
  GBMO_CHECK(ghost_ != nullptr) << "row-partitioned build without a ghost";
  HistBuildInput ghost_in = in;
  ghost_in.features = cols;
  build(*ghost_, ghost_in, out);
  charge_histogram_exchange(node, out);
}

namespace {

// Best split gain a single feature offers over `hist`, mirroring the split
// kernel's Eq. (3) gain with the same min-instance guard and last-bin
// exclusion. Host-side double accumulation: it feeds only the voting
// nomination and the vote-miss diagnostic, never the model.
float local_feature_gain(const HistogramLayout& layout,
                         const NodeHistogram& hist,
                         std::span<const sim::GradPair> totals,
                         std::uint32_t count, const TrainConfig& cfg,
                         std::uint32_t f) {
  const int d = layout.n_outputs();
  const double lambda = cfg.lambda_l2;
  const auto min_inst =
      static_cast<std::uint32_t>(cfg.min_instances_per_node);
  double parent = 0.0;
  for (int k = 0; k < d; ++k) {
    const auto& t = totals[static_cast<std::size_t>(k)];
    parent += static_cast<double>(t.g) * t.g /
              (static_cast<double>(t.h) + lambda);
  }
  std::vector<double> gl(static_cast<std::size_t>(d), 0.0);
  std::vector<double> hl(static_cast<std::size_t>(d), 0.0);
  std::uint32_t left_count = 0;
  float best = cfg.min_split_gain;
  bool found = false;
  const int nb = layout.n_bins(f);
  for (int b = 0; b + 1 < nb; ++b) {
    for (int k = 0; k < d; ++k) {
      const auto& p = hist.sums[layout.slot(f, b, k)];
      gl[static_cast<std::size_t>(k)] += p.g;
      hl[static_cast<std::size_t>(k)] += p.h;
    }
    left_count += hist.counts[layout.bin_index(f, b)];
    if (left_count < min_inst || count - left_count < min_inst) continue;
    double score = 0.0;
    for (int k = 0; k < d; ++k) {
      const auto& t = totals[static_cast<std::size_t>(k)];
      const double gr = static_cast<double>(t.g) - gl[static_cast<std::size_t>(k)];
      const double hr = static_cast<double>(t.h) - hl[static_cast<std::size_t>(k)];
      score += gl[static_cast<std::size_t>(k)] * gl[static_cast<std::size_t>(k)] /
                   (hl[static_cast<std::size_t>(k)] + lambda) +
               gr * gr / (hr + lambda);
    }
    const float gain = 0.5f * static_cast<float>(score - parent);
    if (gain > best) {
      best = gain;
      found = true;
    }
  }
  return found ? best : -1.0f;
}

}  // namespace

int TreeGrower::best_local_feature(const NodeHistogram& hist,
                                   std::span<const sim::GradPair> totals,
                                   std::uint32_t count) const {
  // Ascending feature scan with strict `>`: implicit lowest-feature-id
  // tie-break, matching find_best_splits and the BestSplitMsg election rule.
  int best_f = -1;
  float best_gain = ctx_.config.min_split_gain;
  for (std::uint32_t f : grow_features_) {
    const float gain =
        local_feature_gain(ctx_.layout, hist, totals, count, ctx_.config, f);
    if (gain > best_gain) {
      best_gain = gain;
      best_f = static_cast<int>(f);
    }
  }
  return best_f;
}

void TreeGrower::accumulate_local_votes(
    sim::Device& dev, const NodeHistogram& part,
    std::span<const sim::GradPair> dev_totals, std::uint32_t dev_count) {
  // Local nomination (PV-Tree): this shard's top voting_k features by
  // (local gain desc, feature id asc) each receive one vote.
  struct Nomination {
    float gain;
    std::uint32_t feature;
  };
  std::vector<Nomination> noms;
  std::uint64_t scanned_bins = 0;
  for (std::uint32_t f : grow_features_) {
    scanned_bins += static_cast<std::uint64_t>(ctx_.layout.n_bins(f));
    const float gain = local_feature_gain(ctx_.layout, part, dev_totals,
                                          dev_count, ctx_.config, f);
    if (gain > ctx_.config.min_split_gain) noms.push_back({gain, f});
  }
  const auto top = std::min(noms.size(),
                            static_cast<std::size_t>(ctx_.config.voting_k));
  std::partial_sort(noms.begin(),
                    noms.begin() + static_cast<std::ptrdiff_t>(top),
                    noms.end(), [](const Nomination& a, const Nomination& b) {
                      if (a.gain != b.gain) return a.gain > b.gain;
                      return a.feature < b.feature;
                    });
  for (std::size_t i = 0; i < top; ++i) ++vote_tally_[noms[i].feature];

  // Cost: one scan + gain pass over the local histogram (same shape as the
  // split kernel's scan, without the segmented arg-max exchange).
  const int d = ctx_.layout.n_outputs();
  sim::KernelStats st;
  st.flops = scanned_bins * static_cast<std::uint64_t>(d) * 4;
  st.gmem_coalesced_bytes =
      scanned_bins * (static_cast<std::uint64_t>(d) * sizeof(sim::GradPair) +
                      sizeof(std::uint32_t));
  st.blocks = std::max<std::uint64_t>(1, scanned_bins / 256);
  sim::charge_kernel(dev, "vote_local_split", st);
}

void TreeGrower::charge_histogram_exchange(const ActiveNode& node,
                                           const NodeHistogram& out) {
  const std::size_t sum_bytes = out.sums.size() * sizeof(sim::GradPair);
  const std::size_t count_bytes = out.counts.size() * sizeof(std::uint32_t);
  if (ctx_.config.multi_gpu == MultiGpuMode::kDataParallel) {
    // Same cadence (and, for flat single-node groups, the same modeled cost
    // bit-for-bit) as the historical all_reduce_sum / all_reduce_sum_u32
    // pair over the full histogram.
    group_.charge_all_reduce("ring_all_reduce", sum_bytes);
    group_.charge_all_reduce("ring_all_reduce", count_bytes);
    return;
  }

  // Voting-parallel: elect the top 2*voting_k vote-getters (votes desc,
  // feature id asc — a total order, so the election is deterministic); the
  // full histogram is still reduced inside each node, but only the elected
  // columns plus the ballots themselves cross the inter-node ring.
  ++vote_rounds_;
  struct Candidate {
    std::uint32_t votes;
    std::uint32_t feature;
  };
  std::vector<Candidate> cands;
  for (std::uint32_t f = 0; f < vote_tally_.size(); ++f) {
    if (vote_tally_[f] > 0) cands.push_back({vote_tally_[f], f});
  }
  const auto elect_n = std::min(
      cands.size(), static_cast<std::size_t>(2 * ctx_.config.voting_k));
  std::partial_sort(cands.begin(),
                    cands.begin() + static_cast<std::ptrdiff_t>(elect_n),
                    cands.end(), [](const Candidate& a, const Candidate& b) {
                      if (a.votes != b.votes) return a.votes > b.votes;
                      return a.feature < b.feature;
                    });
  std::vector<bool> elected(vote_tally_.size(), false);
  const int d = ctx_.layout.n_outputs();
  std::size_t elected_bytes = static_cast<std::size_t>(group_.n_alive()) *
                              static_cast<std::size_t>(ctx_.config.voting_k) *
                              2 * sizeof(std::uint32_t);  // the ballots
  for (std::size_t i = 0; i < elect_n; ++i) {
    const std::uint32_t f = cands[i].feature;
    elected[f] = true;
    const auto nb = static_cast<std::size_t>(ctx_.layout.n_bins(f));
    elected_bytes += nb * (static_cast<std::size_t>(d) * sizeof(sim::GradPair) +
                           sizeof(std::uint32_t));
  }
  group_.charge_hierarchical_all_reduce("hist_vote_all_reduce",
                                        sum_bytes + count_bytes,
                                        elected_bytes);

  // Honesty metric: did the election contain the canonical winner? (The
  // functional model always splits on the canonical winner — this simulator
  // quantifies the approximation a real voting run would have made instead
  // of silently training a different model.)
  const int canonical = best_local_feature(out, node.totals, node.count());
  if (canonical >= 0 && !elected[static_cast<std::size_t>(canonical)]) {
    ++vote_misses_;
  }
}

SplitResult TreeGrower::select_split(const ActiveNode& node,
                                     const NodeHistogram& hist) {
  NodeSplitInput input{&hist, node.totals, node.count()};
  return select_splits({&input, 1})[0];
}

std::vector<SplitResult> TreeGrower::select_splits(
    std::span<const NodeSplitInput> inputs) {
  const auto& cfg = ctx_.config;
  group_.set_phase("split");
  if (group_.size() == 1) {
    return find_best_splits(group_.device(0), ctx_.layout, inputs,
                            grow_features_, cfg, split_scratch_);
  }

  if (cfg.multi_gpu != MultiGpuMode::kFeatureParallel) {
    // Row-partitioned modes: histograms are replicated after the exchange,
    // so every live device evaluates the full feature set (replicated
    // compute beats another exchange). The results are identical; keep the
    // first live device's. Lost devices are skipped — before this fix a
    // mid-failover call could charge (and trust) a dead device.
    std::vector<SplitResult> res;
    bool have = false;
    for (int i = 0; i < group_.size(); ++i) {
      if (group_.is_lost(i)) continue;
      auto r = find_best_splits(group_.device(i), ctx_.layout, inputs,
                                grow_features_, cfg, split_scratch_);
      if (!have) {
        res = std::move(r);
        have = true;
      }
    }
    GBMO_CHECK(have) << "split selection with no live devices";
    return res;
  }

  // Feature-parallel: local best per device over its feature subset, then a
  // per-node arg-max all-reduce over the device-local winners.
  std::vector<std::vector<SplitResult>> local(static_cast<std::size_t>(group_.size()));
  for (int i = 0; i < group_.size(); ++i) {
    const auto& feats = grow_device_features_[static_cast<std::size_t>(i)];
    if (feats.empty() || group_.is_lost(i)) {
      local[static_cast<std::size_t>(i)].resize(inputs.size());
    } else {
      local[static_cast<std::size_t>(i)] = find_best_splits(
          group_.device(i), ctx_.layout, inputs, feats, cfg, split_scratch_);
    }
  }
  // The whole level's candidates travel in one exchange (nodes x msg bytes,
  // one ring round), then every device applies the same deterministic
  // election rule as BestSplitMsg: gain desc, then lowest feature id, then
  // lowest device id. (The per-feature scan inside find_best_splits already
  // tie-breaks on the lowest feature, so the cross-device feature comparison
  // here makes the whole election a total order — previously a cross-device
  // gain tie silently resolved to whichever device came first.)
  std::vector<SplitResult> results(inputs.size());
  for (std::size_t ni = 0; ni < inputs.size(); ++ni) {
    int best_dev = -1;
    for (int i = 0; i < group_.size(); ++i) {
      const auto& r = local[static_cast<std::size_t>(i)][ni];
      if (!r.valid()) continue;
      if (best_dev < 0) {
        best_dev = i;
        continue;
      }
      const auto& b = local[static_cast<std::size_t>(best_dev)][ni];
      if (r.gain > b.gain || (r.gain == b.gain && r.feature < b.feature)) {
        best_dev = i;
      }
    }
    if (best_dev >= 0) results[ni] = local[static_cast<std::size_t>(best_dev)][ni];
  }
  group_.charge_broadcast(2 * inputs.size() * sizeof(sim::BestSplitMsg), 0);
  return results;
}

void TreeGrower::compute_leaf(Tree& tree, const ActiveNode& node,
                              std::span<const std::uint32_t> row_order,
                              std::vector<std::int32_t>& leaf_of_row) {
  const int d = ctx_.layout.n_outputs();
  const float lr = ctx_.config.learning_rate;
  const float lambda = ctx_.config.lambda_l2;
  std::vector<float> values(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) {
    const auto& t = node.totals[static_cast<std::size_t>(k)];
    values[static_cast<std::size_t>(k)] = -lr * t.g / (t.h + lambda);
  }
  tree.set_leaf(node.tree_node, values);
  for (std::uint32_t i = node.begin; i < node.end; ++i) {
    leaf_of_row[row_order[i]] = node.tree_node;
  }
  ++finalized_leaves_;
  // Leaf-value math + leaf-assignment scatter, accumulated into one
  // finalize-leaves kernel per tree (flushed at the end of grow()).
  pending_leaf_stats_.flops += static_cast<std::uint64_t>(d) * 3;
  pending_leaf_stats_.gmem_coalesced_bytes +=
      static_cast<std::uint64_t>(node.count()) * sizeof(std::int32_t) +
      static_cast<std::uint64_t>(d) * sizeof(float);
  has_pending_leaf_charges_ = true;
}

void TreeGrower::flush_leaf_charges() {
  if (!has_pending_leaf_charges_) return;
  group_.set_phase("leaf");
  pending_leaf_stats_.blocks = std::max<std::uint64_t>(
      1, pending_leaf_stats_.gmem_coalesced_bytes / (256 * sizeof(std::int32_t)));
  sim::charge_kernel(group_.device(lead_device()), "finalize_leaves",
                     pending_leaf_stats_);
  pending_leaf_stats_ = sim::KernelStats{};
  has_pending_leaf_charges_ = false;
}

void TreeGrower::subtract_node_histograms(const NodeHistogram& parent,
                                          const NodeHistogram& smaller,
                                          NodeHistogram& larger) {
  const auto& cfg = ctx_.config;
  if (group_.size() > 1 && cfg.multi_gpu != MultiGpuMode::kFeatureParallel) {
    // Replicated histograms: one live device derives the sibling (the old
    // break-after-device-0 skipped the subtraction entirely — leaving the
    // derived histogram zero — whenever device 0 happened to be the lost
    // one).
    const int fa = group_.first_alive();
    GBMO_CHECK(fa >= 0) << "sibling subtraction with no live devices";
    subtract_histograms(group_.device(fa), ctx_.layout, grow_features_,
                        parent, smaller, larger);
    return;
  }
  for (int dev = 0; dev < group_.size(); ++dev) {
    const auto& feats = grow_device_features_[static_cast<std::size_t>(dev)];
    if (!feats.empty() && !group_.is_lost(dev)) {
      subtract_histograms(group_.device(dev), ctx_.layout, feats, parent,
                          smaller, larger);
    }
  }
}

void TreeGrower::reduce_node_totals(std::span<const float> g,
                                    std::span<const float> h,
                                    std::span<const std::uint32_t> rows,
                                    std::vector<sim::GradPair>& totals) {
  const int d = ctx_.layout.n_outputs();
  if (group_.size() > 1 &&
      ctx_.config.multi_gpu != MultiGpuMode::kFeatureParallel) {
    // One live device reduces for everyone (the old break-after-device-0
    // left the totals at zero whenever device 0 was the lost one — every
    // downstream gain then silently used an empty parent).
    const int fa = group_.first_alive();
    GBMO_CHECK(fa >= 0) << "node-total reduction with no live devices";
    reduce_gradients(group_.device(fa), g, h, rows, d, totals);
    return;
  }
  for (int dev = 0; dev < group_.size(); ++dev) {
    if (!group_.is_lost(dev)) {
      reduce_gradients(group_.device(dev), g, h, rows, d, totals);
    }
  }
}

bool TreeGrower::splittable(const ActiveNode& node, int depth) const {
  return depth < ctx_.config.max_depth &&
         node.count() >=
             2 * static_cast<std::uint32_t>(ctx_.config.min_instances_per_node);
}

TreeGrower::Children TreeGrower::expand_node(
    const ActiveNode& a, const SplitResult& s, int child_depth,
    bool charge_now, std::span<const float> g, std::span<const float> h,
    std::vector<std::uint32_t>& row_order, Tree& tree) {
  // Split features are always original feature ids (EFB never leaks bundles
  // past histogram construction), so the partition reads the original bins.
  // Out-of-core: first page the split feature's tiles for this node's rows.
  group_.set_phase("partition");
  stage_block(lead_device(), static_cast<std::uint32_t>(s.feature),
              std::span<const std::uint32_t>(row_order).subspan(a.begin,
                                                                a.count()));
  const auto col = ctx_.bins->col(static_cast<std::size_t>(s.feature));
  const auto split_bin = static_cast<std::uint8_t>(s.bin);
  const auto begin_it = row_order.begin() + a.begin;
  const auto mid_it = std::stable_partition(
      begin_it, row_order.begin() + a.end,
      [&](std::uint32_t r) { return col[r] <= split_bin; });
  const std::uint32_t mid =
      a.begin + static_cast<std::uint32_t>(mid_it - begin_it);
  GBMO_CHECK(mid - a.begin == s.n_left)
      << "partition count mismatch on feature " << s.feature;

  // Partition kernel: read the split feature's bins, rewrite the row range.
  Children c;
  c.partition.gmem_random_accesses = a.count();
  c.partition.gmem_coalesced_bytes =
      static_cast<std::uint64_t>(a.count()) * 2 * sizeof(std::uint32_t);
  if (charge_now) charge_partition(c.partition);

  const auto [left_id, right_id] = tree.split_node(
      a.tree_node, s.feature, s.bin,
      ctx_.cuts->threshold_for(static_cast<std::size_t>(s.feature), s.bin),
      s.gain, s.n_left, s.n_right, child_depth);
  const bool left_smaller = s.n_left <= s.n_right;
  ActiveNode& small = c.smaller;
  ActiveNode& large = c.larger;
  small.tree_node = left_smaller ? left_id : right_id;
  small.begin = left_smaller ? a.begin : mid;
  small.end = left_smaller ? mid : a.end;
  large.tree_node = left_smaller ? right_id : left_id;
  large.begin = left_smaller ? mid : a.begin;
  large.end = left_smaller ? a.end : mid;
  small.parent = large.parent = a.tree_node;
  small.sibling = large.tree_node;
  large.sibling = small.tree_node;
  small.is_smaller = true;
  large.is_smaller = false;

  // Child totals: the smaller child is reduced directly, the larger one is
  // the parent minus the smaller (one cheap vector op). They feed the
  // children's zero-bin reconstruction, so they are charged as histogram
  // work.
  const int d = ctx_.layout.n_outputs();
  group_.set_phase("histogram");
  small.totals.assign(static_cast<std::size_t>(d), sim::GradPair{});
  reduce_node_totals(g, h,
                     std::span<const std::uint32_t>(row_order).subspan(
                         small.begin, small.count()),
                     small.totals);
  large.totals.resize(static_cast<std::size_t>(d));
  for (std::size_t k = 0; k < large.totals.size(); ++k) {
    large.totals[k] = sim::GradPair{a.totals[k].g - small.totals[k].g,
                                    a.totals[k].h - small.totals[k].h};
  }
  return c;
}

void TreeGrower::charge_partition(sim::KernelStats st) {
  const std::uint64_t rows = st.gmem_random_accesses;
  group_.set_phase("partition");
  st.blocks = std::max<std::uint64_t>(1, rows / 256);
  sim::charge_kernel(group_.device(lead_device()), "partition_rows", st);
  if (group_.size() > 1 &&
      ctx_.config.multi_gpu == MultiGpuMode::kFeatureParallel) {
    // The split owners broadcast the left/right bitmaps: once per level
    // (level-wise) or once per split (leaf-wise) — the extra
    // synchronization the growth-policy benchmark measures.
    group_.charge_broadcast(rows / 8 + 1, 0);
  }
}

GrownTree TreeGrower::grow(std::span<const float> g, std::span<const float> h,
                           std::span<const std::uint32_t> sampled_rows,
                           std::span<const std::uint32_t> sampled_features) {
  const std::size_t n = ctx_.bins->n_rows();
  const int d = ctx_.layout.n_outputs();
  const auto& cfg = ctx_.config;
  GBMO_CHECK(g.size() == n * static_cast<std::size_t>(d));
  GBMO_CHECK(h.size() == g.size());

  // Resolve this tree's column view: every feature, or the sampled subset
  // intersected with each device's column partition. With EFB, the bundle
  // view follows: a bundle participates when any member is sampled (its
  // unsampled members get expanded too, but split search never sees them).
  const std::size_t m = ctx_.bins->n_cols();
  std::vector<bool> keep(m, sampled_features.empty());
  for (std::uint32_t f : sampled_features) keep[f] = true;
  if (sampled_features.empty()) {
    grow_features_.resize(m);
    std::iota(grow_features_.begin(), grow_features_.end(), 0u);
  } else {
    grow_features_.assign(sampled_features.begin(), sampled_features.end());
  }
  grow_device_features_.assign(device_features_.size(), {});
  for (std::size_t dev = 0; dev < device_features_.size(); ++dev) {
    for (std::uint32_t f : device_features_[dev]) {
      if (keep[f]) grow_device_features_[dev].push_back(f);
    }
  }
  if (ctx_.bundling != nullptr) {
    const auto& bundles = ctx_.bundling->bundles;
    auto sampled = [&](std::uint32_t bi) {
      return std::any_of(bundles[bi].features.begin(),
                         bundles[bi].features.end(),
                         [&](std::uint32_t f) { return keep[f]; });
    };
    grow_bundles_.clear();
    for (std::uint32_t bi = 0; bi < bundles.size(); ++bi) {
      if (sampled(bi)) grow_bundles_.push_back(bi);
    }
    grow_device_bundles_.assign(device_bundles_.size(), {});
    for (std::size_t dev = 0; dev < device_bundles_.size(); ++dev) {
      for (std::uint32_t bi : device_bundles_[dev]) {
        if (sampled(bi)) grow_device_bundles_[dev].push_back(bi);
      }
    }
  }

  // A mid-grow exception (injected fault that exhausts retries, or a device
  // loss the booster recovers from) must not leak the previous attempt's
  // accumulated leaf charges into this one.
  pending_leaf_stats_ = sim::KernelStats{};
  has_pending_leaf_charges_ = false;
  finalized_leaves_ = 0;

  GrownTree out;
  out.tree = Tree(d);
  out.leaf_of_row.assign(n, -1);
  Tree& tree = out.tree;

  std::vector<std::uint32_t> row_order;
  if (sampled_rows.empty()) {
    row_order.resize(n);
    std::iota(row_order.begin(), row_order.end(), 0u);
  } else {
    row_order.assign(sampled_rows.begin(), sampled_rows.end());
  }
  const std::size_t n_active = row_order.size();

  tree.add_root(static_cast<std::uint32_t>(n_active));

  // Root totals (replicated across devices in feature-parallel mode; each
  // device pays for its own reduction, which is cheaper than a broadcast).
  ActiveNode root;
  root.tree_node = 0;
  root.begin = 0;
  root.end = static_cast<std::uint32_t>(n_active);
  root.totals.assign(static_cast<std::size_t>(d), sim::GradPair{});
  group_.set_phase("histogram");
  for (int i = 0; i < group_.size(); ++i) {
    if (group_.is_lost(i)) continue;  // failover: survivors recompute in full
    reduce_gradients(group_.device(i), g, h, row_order, d, root.totals);
  }

  const bool bundled = ctx_.bundling != nullptr;
  if (bundled) note_alloc_all(group_, ctx_.bundle_layout.byte_size());

  if (splittable(root, 0)) {
    if (cfg.growth == GrowthPolicy::kLeafWise) {
      grow_leaf_wise(g, h, row_order, tree, out, std::move(root));
    } else {
      grow_level_wise(g, h, row_order, tree, out, std::move(root));
    }
  } else {
    compute_leaf(tree, root, row_order, out.leaf_of_row);
  }
  group_.set_trace_level(-1);

  flush_leaf_charges();
  if (bundled) note_free_all(group_, ctx_.bundle_layout.byte_size());
  return out;
}

void TreeGrower::grow_level_wise(std::span<const float> g,
                                 std::span<const float> h,
                                 std::vector<std::uint32_t>& row_order,
                                 Tree& tree, GrownTree& out,
                                 ActiveNode&& root) {
  const std::size_t n = ctx_.bins->n_rows();
  const auto& cfg = ctx_.config;
  HistPool pool(group_, ctx_);

  std::vector<ActiveNode> active;
  active.push_back(std::move(root));
  // Histograms of the previous and the current level, while the pool holds
  // them (the previous level's feed this level's subtractions).
  std::unordered_map<std::int32_t, NodeHistogram> prev_hists, cur_hists;

  for (int level = 0; level < cfg.max_depth && !active.empty(); ++level) {
    sim::TraceSpan level_span(group_, "level " + std::to_string(level));
    group_.set_trace_level(level);
    std::vector<SplitResult> decisions(active.size());

    // Budget rule: the whole level's histograms at once, on top of the
    // previous level's, or none of them.
    const bool subtract_mode = pool.reserve(active.size());
    if (subtract_mode) {
      group_.set_phase("histogram");

      // Phase 1: allocate the level's histograms, then classify each node —
      // derived (parent minus smaller sibling) or directly built. Derivation
      // requires the parent's histogram (previous level) *and* an active
      // smaller sibling (a sibling finalized as a leaf has no histogram).
      for (const auto& a : active) cur_hists[a.tree_node].resize(ctx_.layout);
      std::vector<std::size_t> direct_nodes, derived_nodes;
      for (std::size_t i = 0; i < active.size(); ++i) {
        const ActiveNode& a = active[i];
        const bool can_subtract = !a.is_smaller && a.parent >= 0 &&
                                  prev_hists.count(a.parent) > 0 &&
                                  cur_hists.count(a.sibling) > 0;
        (can_subtract ? derived_nodes : direct_nodes).push_back(i);
      }

      // Phase 2: direct builds. With the CSC view available (and a row
      // partitioning that keeps every row on every device), one sweep over
      // the stored nonzeros covers all direct nodes of the level (§3.2);
      // otherwise each node streams its dense rows.
      const bool use_csc_sweep =
          ctx_.csc != nullptr && cfg.csc_level_sweep && !ctx_.bundling &&
          (group_.size() == 1 || cfg.multi_gpu == MultiGpuMode::kFeatureParallel);
      if (use_csc_sweep && !direct_nodes.empty()) {
        std::vector<std::int32_t> node_slot(n, -1);
        std::vector<LevelNodeInput> inputs(direct_nodes.size());
        for (std::size_t s = 0; s < direct_nodes.size(); ++s) {
          const ActiveNode& a = active[direct_nodes[s]];
          for (std::uint32_t i = a.begin; i < a.end; ++i) {
            node_slot[row_order[i]] = static_cast<std::int32_t>(s);
          }
          inputs[s] = {&cur_hists.at(a.tree_node), a.totals, a.count()};
        }
        for (int dev = 0; dev < group_.size(); ++dev) {
          const auto& feats = grow_device_features_[static_cast<std::size_t>(dev)];
          if (feats.empty()) continue;
          build_level_histograms_csc(group_.device(dev), *ctx_.csc, node_slot,
                                     inputs, g, h, ctx_.layout, feats);
        }
      } else {
        for (const std::size_t i : direct_nodes) {
          build_node_histogram(active[i], row_order,
                               cur_hists.at(active[i].tree_node), g, h);
        }
      }

      // Phase 3: derived nodes by subtraction (their smaller siblings are
      // direct nodes, built above).
      for (const std::size_t i : derived_nodes) {
        const ActiveNode& a = active[i];
        subtract_node_histograms(prev_hists.at(a.parent),
                                 cur_hists.at(a.sibling),
                                 cur_hists.at(a.tree_node));
      }

      // All of the level's histograms are alive: one batched scan + gain +
      // segmented-reduction kernel set selects every node's split (§3.1.3).
      std::vector<NodeSplitInput> inputs(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) {
        inputs[i] = {&cur_hists.at(active[i].tree_node), active[i].totals,
                     active[i].count()};
      }
      decisions = select_splits(inputs);
    } else {
      // Memory-bounded fallback: one reused scratch buffer, so selection
      // cannot be deferred past the next node's build.
      for (std::size_t i = 0; i < active.size(); ++i) {
        NodeHistogram& hist = pool.scratch(0);
        build_node_histogram(active[i], row_order, hist, g, h);
        decisions[i] = select_split(active[i], hist);
      }
    }

    if (cfg.max_leaves > 0) {
      // Leaf budget: splitting S of the A active nodes yields
      // finalized + (A − S) + 2·S leaves if growth stopped here, so at most
      // S = max_leaves − finalized − A splits may proceed; keep the top ones
      // by (gain desc, node id asc). The histograms built for trimmed nodes
      // are wasted work — exactly the level-wise overhead the leaf-wise
      // policy avoids at an equal leaf budget.
      const auto cap = static_cast<std::size_t>(cfg.max_leaves);
      const std::size_t committed = finalized_leaves_ + active.size();
      const std::size_t allowed = cap > committed ? cap - committed : 0;
      std::vector<std::size_t> valid;
      for (std::size_t i = 0; i < decisions.size(); ++i) {
        if (decisions[i].valid()) valid.push_back(i);
      }
      if (valid.size() > allowed) {
        std::sort(valid.begin(), valid.end(),
                  [&](std::size_t x, std::size_t y) {
                    if (decisions[x].gain != decisions[y].gain) {
                      return decisions[x].gain > decisions[y].gain;
                    }
                    return active[x].tree_node < active[y].tree_node;
                  });
        for (std::size_t i = allowed; i < valid.size(); ++i) {
          decisions[valid[i]] = SplitResult{};
        }
      }
    }

    pool.release(prev_hists.size());
    prev_hists.clear();
    if (subtract_mode) std::swap(prev_hists, cur_hists);

    // Apply splits: expand every node, route its children. The partition
    // kernel covers the whole level in one launch, charged after the
    // level's child-total reductions.
    sim::KernelStats level_partition;
    std::vector<ActiveNode> next;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (!decisions[i].valid()) {
        compute_leaf(tree, active[i], row_order, out.leaf_of_row);
        continue;
      }
      Children c = expand_node(active[i], decisions[i], level + 1,
                               /*charge_now=*/false, g, h, row_order, tree);
      level_partition += c.partition;
      // Smaller first: enables subtraction.
      for (ActiveNode* child : {&c.smaller, &c.larger}) {
        if (splittable(*child, level + 1)) {
          next.push_back(std::move(*child));
        } else {
          compute_leaf(tree, *child, row_order, out.leaf_of_row);
        }
      }
    }
    if (level_partition.gmem_random_accesses > 0) {
      charge_partition(level_partition);
    }
    active = std::move(next);
  }
  pool.release_all();
}

void TreeGrower::grow_leaf_wise(std::span<const float> g,
                                std::span<const float> h,
                                std::vector<std::uint32_t>& row_order,
                                Tree& tree, GrownTree& out, ActiveNode&& root) {
  const auto& cfg = ctx_.config;
  // Budget rule: one histogram at a time, for as long as the pool has room.
  // Without one, a node builds into scratch and its children lose sibling
  // subtraction — leaf-wise's face of the level-wise fallback.
  HistPool pool(group_, ctx_);
  std::vector<LeafCandidate> frontier;
  std::size_t n_leaves = 1;  // the root counts until it splits

  // A candidate with a valid split joins the frontier; any other is a leaf.
  auto route = [&](LeafCandidate&& c) {
    if (c.split.valid()) {
      frontier.push_back(std::move(c));
    } else {
      pool.drop(c.hist);
      compute_leaf(tree, c.node, row_order, out.leaf_of_row);
    }
  };

  {
    LeafCandidate c;
    c.node = std::move(root);
    c.hist = pool.acquire();
    NodeHistogram& hist = c.hist ? *c.hist : pool.scratch(0);
    build_node_histogram(c.node, row_order, hist, g, h);
    c.split = select_split(c.node, hist);
    route(std::move(c));
  }

  while (!frontier.empty() &&
         (cfg.max_leaves == 0 ||
          n_leaves < static_cast<std::size_t>(cfg.max_leaves))) {
    // Pop the best candidate: max gain, ties to the lowest tree node id —
    // a deterministic total order, so the grown tree is identical at any
    // --sim-threads and independent of frontier insertion history.
    std::size_t best = 0;
    for (std::size_t i = 1; i < frontier.size(); ++i) {
      const auto& fi = frontier[i];
      const auto& fb = frontier[best];
      if (fi.split.gain > fb.split.gain ||
          (fi.split.gain == fb.split.gain &&
           fi.node.tree_node < fb.node.tree_node)) {
        best = i;
      }
    }
    LeafCandidate cand = std::move(frontier[best]);
    frontier.erase(frontier.begin() +
                   static_cast<std::ptrdiff_t>(best));

    sim::TraceSpan split_span(group_, "leaf-split node " +
                                          std::to_string(cand.node.tree_node));
    group_.set_trace_level(cand.depth);
    const int cdepth = cand.depth + 1;
    Children c = expand_node(cand.node, cand.split, cdepth,
                             /*charge_now=*/true, g, h, row_order, tree);
    ++n_leaves;

    LeafCandidate sc, lc;
    sc.node = std::move(c.smaller);
    sc.depth = cdepth;
    lc.node = std::move(c.larger);
    lc.depth = cdepth;
    const bool small_elig = splittable(sc.node, cdepth);
    const bool large_elig = splittable(lc.node, cdepth);

    NodeHistogram* small_hist = nullptr;
    NodeHistogram* large_hist = nullptr;
    if (small_elig) {
      sc.hist = pool.acquire();
      small_hist = sc.hist ? sc.hist.get() : &pool.scratch(0);
      build_node_histogram(sc.node, row_order, *small_hist, g, h);
    } else if (large_elig && cand.hist) {
      // Lone-child rule: the smaller child's histogram is still worth
      // building (into scratch: no candidate will keep it) — building the
      // smaller side plus one subtraction beats streaming the larger side.
      small_hist = &pool.scratch(0);
      build_node_histogram(sc.node, row_order, *small_hist, g, h);
    }
    if (large_elig) {
      lc.hist = pool.acquire();
      large_hist = lc.hist ? lc.hist.get() : &pool.scratch(1);
      if (cand.hist && small_hist) {
        subtract_node_histograms(*cand.hist, *small_hist, *large_hist);
      } else {
        build_node_histogram(lc.node, row_order, *large_hist, g, h);
      }
    }

    // One batched scan/gain/reduction kernel set covers both children.
    std::vector<NodeSplitInput> inputs;
    std::vector<LeafCandidate*> kids;
    if (small_elig) {
      inputs.push_back({small_hist, sc.node.totals, sc.node.count()});
      kids.push_back(&sc);
    }
    if (large_elig) {
      inputs.push_back({large_hist, lc.node.totals, lc.node.count()});
      kids.push_back(&lc);
    }
    if (!kids.empty()) {
      const auto results = select_splits(inputs);
      for (std::size_t i = 0; i < kids.size(); ++i) kids[i]->split = results[i];
    }

    pool.drop(cand.hist);  // the parent's histogram has served its subtraction
    route(std::move(sc));
    route(std::move(lc));
  }

  // Leaf budget reached (or no splittable leaves left): finalize the rest.
  for (const auto& c : frontier) {
    compute_leaf(tree, c.node, row_order, out.leaf_of_row);
  }
  pool.release_all();
}

}  // namespace gbmo::core
