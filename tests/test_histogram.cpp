// Histogram builder equivalence: every strategy (global, shared,
// sort-reduce, adaptive) with and without bin packing, sparsity-awareness
// and CSC indirection must produce the same histogram as a scalar reference
// — swept over output dimensions and sparsity levels.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "core/histogram.h"
#include "data/synthetic.h"
#include "sim/scheduler.h"
#include "sim/sink.h"

namespace gbmo::core {
namespace {

struct Fixture {
  data::Dataset dataset;
  data::BinCuts cuts;
  data::BinnedMatrix binned;
  HistogramLayout layout;
  std::vector<float> g, h;
  std::vector<std::uint32_t> rows;       // a "node": odd-indexed instances
  std::vector<std::uint32_t> features;
  std::vector<sim::GradPair> totals;

  Fixture(int d, double sparsity, std::uint64_t seed,
          std::size_t n_instances = 500, int max_bins = 32) {
    data::MultiregressionSpec spec;
    spec.n_instances = n_instances;
    spec.n_features = 9;
    spec.n_outputs = d;
    spec.sparsity = sparsity;
    spec.seed = seed;
    dataset = data::make_multiregression(spec);
    cuts = data::BinCuts::build(dataset.x, max_bins);
    binned = data::BinnedMatrix(dataset.x, cuts);
    binned.pack();
    layout = HistogramLayout(cuts, d);

    Rng rng(seed ^ 0xabcdef);
    g.resize(dataset.n_instances() * static_cast<std::size_t>(d));
    h.resize(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = rng.uniform(-1.0f, 1.0f);
      h[i] = rng.uniform(0.1f, 1.0f);
    }
    for (std::uint32_t r = 1; r < dataset.n_instances(); r += 2) rows.push_back(r);
    features.resize(dataset.n_features());
    std::iota(features.begin(), features.end(), 0u);

    totals.assign(static_cast<std::size_t>(d), sim::GradPair{});
    for (std::uint32_t r : rows) {
      for (int k = 0; k < d; ++k) {
        totals[static_cast<std::size_t>(k)].g +=
            g[static_cast<std::size_t>(r) * d + static_cast<std::size_t>(k)];
        totals[static_cast<std::size_t>(k)].h +=
            h[static_cast<std::size_t>(r) * d + static_cast<std::size_t>(k)];
      }
    }
  }

  // Scalar reference: accumulate everything directly.
  NodeHistogram reference() const {
    NodeHistogram ref;
    ref.resize(layout);
    const int d = layout.n_outputs();
    for (std::uint32_t r : rows) {
      for (std::uint32_t f : features) {
        const auto bin = binned.bin(r, f);
        for (int k = 0; k < d; ++k) {
          auto& slot = ref.sums[layout.slot(f, bin, k)];
          slot.g += g[static_cast<std::size_t>(r) * d + static_cast<std::size_t>(k)];
          slot.h += h[static_cast<std::size_t>(r) * d + static_cast<std::size_t>(k)];
        }
        ++ref.counts[layout.bin_index(f, bin)];
      }
    }
    return ref;
  }

  HistBuildInput input(bool packed, bool sparsity_aware, bool csc) const {
    HistBuildInput in;
    in.bins = &binned;
    in.node_rows = rows;
    in.g = g;
    in.h = h;
    in.layout = &layout;
    in.features = features;
    in.packed = packed;
    in.sparsity_aware = sparsity_aware;
    in.csc_indirection = csc;
    in.node_totals = totals;
    in.node_count = static_cast<std::uint32_t>(rows.size());
    return in;
  }
};

void expect_equal(const HistogramLayout& layout, const NodeHistogram& actual,
                  const NodeHistogram& expected, const char* what) {
  const int d = layout.n_outputs();
  for (std::size_t f = 0; f < layout.n_features(); ++f) {
    for (int b = 0; b < layout.n_bins(f); ++b) {
      EXPECT_EQ(actual.counts[layout.bin_index(f, b)],
                expected.counts[layout.bin_index(f, b)])
          << what << " count f=" << f << " b=" << b;
      for (int k = 0; k < d; ++k) {
        const auto& a = actual.sums[layout.slot(f, b, k)];
        const auto& e = expected.sums[layout.slot(f, b, k)];
        EXPECT_NEAR(a.g, e.g, 1e-3f) << what << " f=" << f << " b=" << b << " k=" << k;
        EXPECT_NEAR(a.h, e.h, 1e-3f) << what << " f=" << f << " b=" << b << " k=" << k;
      }
    }
  }
}

struct Case {
  HistMethod method;
  bool packed;
  bool sparsity_aware;
  bool csc;
};

class BuilderEquivalence
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BuilderEquivalence, AllStrategiesMatchScalarReference) {
  const auto [d, sparsity] = GetParam();
  Fixture fx(d, sparsity, 42 + static_cast<std::uint64_t>(d));
  const auto expected = fx.reference();

  const Case cases[] = {
      {HistMethod::kGlobal, false, false, false},
      {HistMethod::kGlobal, true, true, false},
      {HistMethod::kGlobal, false, true, true},
      {HistMethod::kShared, false, false, false},
      {HistMethod::kShared, true, true, false},
      {HistMethod::kSortReduce, false, false, false},
      {HistMethod::kSortReduce, false, true, false},
      {HistMethod::kAuto, true, true, false},
  };
  for (const auto& c : cases) {
    auto builder = make_builder(c.method);
    sim::Device dev(sim::DeviceSpec::rtx4090());
    NodeHistogram hist;
    hist.resize(fx.layout);
    builder->build(dev, fx.input(c.packed, c.sparsity_aware, c.csc), hist);
    expect_equal(fx.layout, hist, expected, builder->name());
    EXPECT_GT(dev.modeled_seconds(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BuilderEquivalence,
                         ::testing::Combine(::testing::Values(1, 3, 16),
                                            ::testing::Values(0.0, 0.6, 0.95)));

// Scalar replica of the atomic builders' float order: the node's rows in
// chunks of `chunk_rows` (256 for hist_gmem, 1024 for hist_smem), each chunk
// accumulated into a private per-bin tile in row order, tiles flushed into
// the histogram in chunk order; then the shared zero-bin reconstruction.
NodeHistogram chunked_replica(const Fixture& fx, const HistBuildInput& in,
                              std::size_t chunk_rows) {
  const auto& layout = fx.layout;
  const int d = layout.n_outputs();
  NodeHistogram out;
  out.resize(layout);
  for (std::uint32_t f : fx.features) {
    const int n_bins = layout.n_bins(f);
    for (std::size_t lo = 0; lo < fx.rows.size(); lo += chunk_rows) {
      std::vector<sim::GradPair> tile(static_cast<std::size_t>(n_bins * d));
      std::vector<std::uint32_t> counts(static_cast<std::size_t>(n_bins));
      const std::size_t hi = std::min(fx.rows.size(), lo + chunk_rows);
      for (std::size_t r = lo; r < hi; ++r) {
        const std::size_t row = fx.rows[r];
        const int bin = fx.binned.bin(row, f);
        if (in.sparsity_aware && bin == layout.zero_bin(f)) continue;
        for (int k = 0; k < d; ++k) {
          auto& t = tile[static_cast<std::size_t>(bin * d + k)];
          t.g += fx.g[row * static_cast<std::size_t>(d) + static_cast<std::size_t>(k)];
          t.h += fx.h[row * static_cast<std::size_t>(d) + static_cast<std::size_t>(k)];
        }
        ++counts[static_cast<std::size_t>(bin)];
      }
      for (int b = 0; b < n_bins; ++b) {
        if (counts[static_cast<std::size_t>(b)] == 0) continue;
        for (int k = 0; k < d; ++k) {
          out.sums[layout.slot(f, b, k)] += tile[static_cast<std::size_t>(b * d + k)];
        }
        out.counts[layout.bin_index(f, b)] += counts[static_cast<std::size_t>(b)];
      }
    }
  }
  reconstruct_zero_bins(in, out);
  return out;
}

void expect_bitwise_equal(const HistogramLayout& layout,
                          const NodeHistogram& actual,
                          const NodeHistogram& expected, const std::string& what) {
  ASSERT_EQ(actual.sums.size(), expected.sums.size()) << what;
  ASSERT_EQ(actual.counts, expected.counts) << what;
  for (std::size_t i = 0; i < actual.sums.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(actual.sums[i].g),
              std::bit_cast<std::uint32_t>(expected.sums[i].g))
        << what << " g at slot " << i << " of " << layout.size();
    ASSERT_EQ(std::bit_cast<std::uint32_t>(actual.sums[i].h),
              std::bit_cast<std::uint32_t>(expected.sums[i].h))
        << what << " h at slot " << i << " of " << layout.size();
  }
}

// (d, max bins). Widths that are not a multiple of 4 reach the scalar tail
// of the pair add; 256 bins x d=32 needs two hist_smem tile passes on the
// 48 KB preset (6144 pair slots / 32 = 192 bins per pass).
class BuilderBitwise : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BuilderBitwise, AtomicBuildersMatchTheirChunkedOrderExactly) {
  const auto [d, max_bins] = GetParam();
  // 3000 instances: the odd-indexed node is 1500 rows, so both builders
  // accumulate several row chunks.
  Fixture fx(d, 0.3, 900 + static_cast<std::uint64_t>(d), 3000, max_bins);
  if (max_bins == 256) {
    const std::size_t slots = sim::DeviceSpec::rtx4090().shared_mem_per_block /
                              sizeof(sim::GradPair);
    int widest = 0;
    for (std::uint32_t f : fx.features) widest = std::max(widest, fx.layout.n_bins(f));
    ASSERT_GT(static_cast<std::size_t>(widest * d), slots) << "fixture must need 2 tile passes";
  }
  const struct {
    HistMethod method;
    std::size_t chunk_rows;
  } builders[] = {{HistMethod::kGlobal, 256}, {HistMethod::kShared, 1024}};
  for (const auto& b : builders) {
    for (const bool packed : {false, true}) {
      for (const bool sparsity_aware : {false, true}) {
        const auto in = fx.input(packed, sparsity_aware, false);
        const auto expected = chunked_replica(fx, in, b.chunk_rows);
        for (const int threads : {1, 3}) {
          sim::set_sim_threads(threads);
          auto builder = make_builder(b.method);
          sim::Device dev(sim::DeviceSpec::rtx4090());
          NodeHistogram hist;
          hist.resize(fx.layout);
          builder->build(dev, in, hist);
          sim::set_sim_threads(0);
          expect_bitwise_equal(fx.layout, hist, expected,
                               std::string(builder->name()) + " packed=" +
                                   std::to_string(packed) + " sparsity_aware=" +
                                   std::to_string(sparsity_aware) +
                                   " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BuilderBitwise,
                         ::testing::Values(std::make_tuple(1, 32),
                                           std::make_tuple(5, 32),
                                           std::make_tuple(10, 32),
                                           std::make_tuple(32, 256)));

// Sums every charge of a build per kernel label.
class PerKernelSink final : public sim::StatsSink {
 public:
  void on_event(const sim::KernelEvent& e) override { by_kernel[*e.name] += e.stats; }
  void on_span_begin(const std::string&, double) override {}
  void on_span_end(double) override {}
  std::map<std::string, sim::KernelStats> by_kernel;
};

std::string describe(const sim::KernelStats& s) {
  std::ostringstream os;
  os << "coalesced=" << s.gmem_coalesced_bytes
     << " random=" << s.gmem_random_accesses
     << " atomic_global=" << s.atomic_global_ops << "/"
     << s.atomic_global_conflicts << " atomic_shared=" << s.atomic_shared_ops
     << "/" << s.atomic_shared_conflicts << " smem=" << s.smem_bytes
     << " flops=" << s.flops << " blocks=" << s.blocks
     << " threads=" << s.threads << " barriers=" << s.barriers
     << " sort=" << s.sort_pairs_bytes << " scan=" << s.scan_bytes
     << " check=" << s.check_violations << " faults=" << s.faults_injected
     << "/" << s.fault_retries;
  return os.str();
}

// The modeled counters of the three dense builders are a ratchet: every
// KernelStats field of every kernel a build charges must stay exactly what
// it was when these constants were captured. A change here changes modeled
// seconds and must be intended.
TEST(BuilderCounters, PinnedPerKernel) {
  struct Pin {
    HistMethod method;
    bool wide;  // 256 bins x d=32, unpacked (two smem tile passes); else
                // 32 bins x d=5, packed
    const char* kernel;
    const char* stats;
  };
  const Pin pins[] = {
      {HistMethod::kGlobal, false, "hist_gmem",
       "coalesced=686880 random=8649 atomic_global=52740/2544 atomic_shared=0/0 "
       "smem=0 flops=66240 blocks=54 threads=13824 barriers=0 sort=0 scan=0 "
       "check=0 faults=0/0"},
      {HistMethod::kGlobal, true, "hist_gmem",
       "coalesced=7287792 random=22919 atomic_global=602816/476 "
       "atomic_shared=0/0 smem=0 flops=602816 blocks=54 threads=13824 "
       "barriers=0 sort=0 scan=0 check=0 faults=0/0"},
      {HistMethod::kShared, false, "hist_smem",
       "coalesced=309520 random=8649 atomic_global=5570/0 "
       "atomic_shared=52740/2596 smem=468000 flops=66240 blocks=18 "
       "threads=4608 barriers=18 sort=0 scan=0 check=0 faults=0/0"},
      {HistMethod::kShared, true, "hist_smem",
       "coalesced=4550880 random=36419 atomic_global=253952/0 "
       "atomic_shared=602816/1092 smem=7181824 flops=602816 blocks=36 "
       "threads=9216 barriers=36 sort=0 scan=0 check=0 faults=0/0"},
      {HistMethod::kSortReduce, false, "hist_sort_keys",
       "coalesced=117288 random=3375 atomic_global=0/0 atomic_shared=0/0 "
       "smem=0 flops=0 blocks=74 threads=13824 barriers=0 sort=0 scan=0 "
       "check=0 faults=0/0"},
      {HistMethod::kSortReduce, false, "hist_sort_reduce",
       "coalesced=527400 random=26370 atomic_global=0/0 atomic_shared=0/0 "
       "smem=0 flops=52740 blocks=21 threads=5376 barriers=0 sort=0 scan=0 "
       "check=0 faults=0/0"},
      {HistMethod::kSortReduce, false, "radix_sort",
       "coalesced=0 random=0 atomic_global=0/0 atomic_shared=0/0 smem=0 "
       "flops=0 blocks=20 threads=0 barriers=0 sort=316440 scan=0 check=0 "
       "faults=0/0"},
      {HistMethod::kSortReduce, true, "hist_sort_keys",
       "coalesced=167028 random=13500 atomic_global=0/0 atomic_shared=0/0 "
       "smem=0 flops=0 blocks=90 threads=13824 barriers=0 sort=0 scan=0 "
       "check=0 faults=0/0"},
      {HistMethod::kSortReduce, true, "hist_sort_reduce",
       "coalesced=6028160 random=301408 atomic_global=0/0 atomic_shared=0/0 "
       "smem=0 flops=602816 blocks=37 threads=9472 barriers=0 sort=0 scan=0 "
       "check=0 faults=0/0"},
      {HistMethod::kSortReduce, true, "radix_sort",
       "coalesced=0 random=0 atomic_global=0/0 atomic_shared=0/0 smem=0 "
       "flops=0 blocks=36 threads=0 barriers=0 sort=565140 scan=0 check=0 "
       "faults=0/0"},
  };
  Fixture narrow(5, 0.6, 4242, 3000, 32);
  Fixture wide(32, 0.3, 4243, 3000, 256);
  std::map<std::pair<int, bool>, std::map<std::string, sim::KernelStats>> seen;
  for (const auto method :
       {HistMethod::kGlobal, HistMethod::kShared, HistMethod::kSortReduce}) {
    for (const bool is_wide : {false, true}) {
      const Fixture& fx = is_wide ? wide : narrow;
      PerKernelSink sink;
      sim::Device dev(sim::DeviceSpec::rtx4090());
      dev.set_sink(&sink);
      NodeHistogram hist;
      hist.resize(fx.layout);
      make_builder(method)->build(dev, fx.input(!is_wide, true, false), hist);
      seen[{static_cast<int>(method), is_wide}] = sink.by_kernel;
    }
  }
  std::size_t pinned = 0;
  for (const auto& pin : pins) {
    const auto& kernels = seen[{static_cast<int>(pin.method), pin.wide}];
    const auto it = kernels.find(pin.kernel);
    ASSERT_NE(it, kernels.end()) << pin.kernel << " not charged";
    EXPECT_EQ(describe(it->second), pin.stats) << pin.kernel << " wide=" << pin.wide;
    ++pinned;
  }
  std::size_t charged = 0;
  for (const auto& [key, kernels] : seen) charged += kernels.size();
  EXPECT_EQ(pinned, charged) << "a build charged a kernel with no pin";
}

TEST(HistogramLayoutTest, SlotArithmetic) {
  data::DenseMatrix x(10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    x.at(i, 0) = static_cast<float>(i);
    x.at(i, 1) = static_cast<float>(i % 3);
  }
  const auto cuts = data::BinCuts::build(x, 256);
  const HistogramLayout layout(cuts, 4);
  EXPECT_EQ(layout.n_features(), 2u);
  EXPECT_EQ(layout.n_bins(0), 10);
  EXPECT_EQ(layout.n_bins(1), 3);
  EXPECT_EQ(layout.total_bins(), 13u);
  EXPECT_EQ(layout.size(), 13u * 4u);
  EXPECT_EQ(layout.slot(0, 0, 0), 0u);
  EXPECT_EQ(layout.slot(0, 1, 0), 4u);
  EXPECT_EQ(layout.slot(1, 0, 2), 10u * 4u + 2u);
  // zero bin of feature 0: value 0.0 is the smallest -> bin 0.
  EXPECT_EQ(layout.zero_bin(0), 0);
}

TEST(SubtractHistogramsTest, ParentMinusChildIsSibling) {
  Fixture fx(4, 0.4, 77);
  // Split the node's rows into two parts; parent covers all of them.
  std::vector<std::uint32_t> left_rows, right_rows;
  for (std::size_t i = 0; i < fx.rows.size(); ++i) {
    (i % 3 == 0 ? left_rows : right_rows).push_back(fx.rows[i]);
  }
  auto build_for = [&](std::span<const std::uint32_t> rows) {
    NodeHistogram hist;
    hist.resize(fx.layout);
    auto in = fx.input(false, false, false);
    in.node_rows = rows;
    in.node_count = static_cast<std::uint32_t>(rows.size());
    sim::Device dev(sim::DeviceSpec::rtx4090());
    make_global_builder()->build(dev, in, hist);
    return hist;
  };
  const auto parent = build_for(fx.rows);
  const auto left = build_for(left_rows);
  const auto expected_right = build_for(right_rows);

  NodeHistogram derived;
  derived.resize(fx.layout);
  sim::Device dev(sim::DeviceSpec::rtx4090());
  subtract_histograms(dev, fx.layout, fx.features, parent, left, derived);
  expect_equal(fx.layout, derived, expected_right, "subtraction");
}

}  // namespace
}  // namespace gbmo::core
