// Internal helpers shared by the histogram builder implementations.
//
// Memory-accounting conventions (see DESIGN.md and sim/cost_model.h):
//  - node row-id reads are coalesced;
//  - bin-id fetches are gathers: one 32-byte transaction per element without
//    bin packing, one per 4 elements with packing (§3.4.1), because stable
//    partitioning keeps a node's rows in ascending, mostly-contiguous order;
//  - a nonzero element reads its d-wide g/h rows as one burst (1 random
//    transaction + 2*d*4 coalesced bytes);
//  - a histogram update is a d-wide contiguous vector add. One atomic
//    operation is charged per element; a same-bin collision serializes the
//    whole d-wide update, so collision counts are scaled by d.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/histogram.h"
#include "data/bin_pack.h"
#include "sim/accessors.h"

namespace gbmo::core::detail {

// Per-block tally accumulated in registers and folded into KernelStats once,
// keeping the functional inner loop tight.
struct BuildTally {
  std::uint64_t elements = 0;       // (row, feature) pairs processed
  std::uint64_t nonzero = 0;        // elements that accumulated
  std::uint64_t conflict_hits = 0;  // same-bin collisions (unscaled)

  void fold_common(sim::KernelStats& s, int d, bool packed,
                   bool csc_indirection = false) const {
    // Row-id reads: coalesced u32 stream.
    s.gmem_coalesced_bytes += elements * sizeof(std::uint32_t);
    // Bin fetches.
    s.gmem_random_accesses += packed ? (elements + 3) / 4 : elements;
    if (packed) s.flops += elements;  // shift/mask unpack
    // CSC storage adds scattered row-index + value + node-position lookups
    // per stored nonzero (§3.2's "higher overhead when locating attribute
    // values") — the reason mo-sp trails mo-fu on dense-leaning data.
    if (csc_indirection) s.gmem_random_accesses += nonzero * 6;
    // Gradient row bursts.
    s.gmem_random_accesses += nonzero;
    s.gmem_coalesced_bytes += nonzero * static_cast<std::uint64_t>(d) * 2 * sizeof(float);
  }
};

// Restage-on-retry helper (sim/faults.h): builders accumulate into `out`
// slots that are zero on entry (the builder contract), so re-zeroing this
// call's feature slots before every launch attempt makes a retried build
// bit-identical to a clean one. Touches only `in.features` — other devices'
// feature slices of a shared histogram stay intact.
inline void restage_feature_slots(const HistBuildInput& in, NodeHistogram& out) {
  const auto& layout = *in.layout;
  const int d = layout.n_outputs();
  for (const std::uint32_t f : in.features) {
    const int n_bins = layout.n_bins(f);
    for (int b = 0; b < n_bins; ++b) {
      const std::size_t base = layout.slot(f, b, 0);
      for (int k = 0; k < d; ++k) out.sums[base + static_cast<std::size_t>(k)] = {};
      out.counts[layout.bin_index(f, b)] = 0;
    }
  }
}

// Fetches the bin id of (row, feature) honoring the packed flag.
inline std::uint8_t fetch_bin(const data::BinnedMatrix& bins, bool packed,
                              std::size_t row, std::size_t f) {
  if (packed) {
    const auto words = bins.packed_col(f);
    return data::unpack_bin(words[row / 4], static_cast<unsigned>(row & 3));
  }
  return bins.col(f)[row];
}

// A block's private histogram tile: n_bins x d gradient pairs plus a count
// per bin. One per host worker thread, reused by every block the worker
// runs (a worker runs its blocks one after another), so no block allocates.
struct BlockTile {
  std::vector<sim::GradPair> sums;
  std::vector<std::uint32_t> counts;

  // Sizes the tile to n_bins bins, all zero; capacity is kept across blocks.
  void reset(std::size_t n_bins, int d) {
    sums.assign(n_bins * static_cast<std::size_t>(d), sim::GradPair{});
    counts.assign(n_bins, 0);
  }
};

inline BlockTile& worker_tile() {
  thread_local BlockTile tile;
  return tile;
}

// Accumulates node rows [row_lo, row_hi) of feature f into a block tile
// covering bins [bin_lo, bin_hi): each in-range, non-skipped element adds
// its d-wide g/h row to the bin's slots with one pair add and bumps the
// bin's count, in row order. Tallies every element read, and for each
// accumulated one a conflict note at key_base + (bin - bin_lo) * d — the
// caller's modeled atomic address.
inline void accumulate_rows(const HistBuildInput& in, std::uint32_t f,
                            std::size_t row_lo, std::size_t row_hi, int bin_lo,
                            int bin_hi, std::uintptr_t key_base,
                            sim::Shared<sim::GradPair>& sums,
                            sim::Shared<std::uint32_t>& counts,
                            BuildTally& tally, sim::ConflictTracker& tracker) {
  const std::size_t d = static_cast<std::size_t>(in.layout->n_outputs());
  // Out of the 0..255 bin range: never matches when not sparsity-aware.
  const int skip = in.sparsity_aware ? in.layout->zero_bin(f) : -1;
  const std::uint32_t* rows = in.node_rows.data();
  const float* g = in.g.data();
  const float* h = in.h.data();
  auto run = [&](auto bin_of) {
    for (std::size_t r = row_lo; r < row_hi; ++r) {
      const std::size_t row = rows[r];
      const int bin = bin_of(row);
      if (bin < bin_lo || bin >= bin_hi || bin == skip) continue;
      ++tally.nonzero;
      const std::size_t slot = static_cast<std::size_t>(bin - bin_lo);
      tally.conflict_hits += tracker.note(key_base + slot * d);
      sums.atomic_add_pairs(slot * d, g + row * d, h + row * d, d);
      counts.atomic_add(slot, 1u);
    }
  };
  if (in.packed) {
    const std::uint32_t* words = in.bins->packed_col(f).data();
    run([words](std::size_t row) {
      return static_cast<int>(data::unpack_bin(words[row / 4], row & 3));
    });
  } else {
    const std::uint8_t* col = in.bins->col(f).data();
    run([col](std::size_t row) { return static_cast<int>(col[row]); });
  }
  tally.elements += row_hi - row_lo;
}

// Flushes a block tile covering bins [bin_lo, bin_hi) of feature f into the
// node histogram: for each bin with a nonzero count, its d pairs and its
// count, in bin order. Call it inside blk.commit(). Returns the pairs
// flushed.
inline std::uint64_t flush_tile(const HistogramLayout& layout, std::uint32_t f,
                                int bin_lo, int bin_hi,
                                const sim::Shared<sim::GradPair>& sums,
                                const sim::Shared<std::uint32_t>& counts,
                                sim::Global<sim::GradPair>& out_sums,
                                sim::Global<std::uint32_t>& out_counts) {
  const std::size_t d = static_cast<std::size_t>(layout.n_outputs());
  std::uint64_t flushed = 0;
  for (int b = bin_lo; b < bin_hi; ++b) {
    const std::size_t slot = static_cast<std::size_t>(b - bin_lo);
    const std::uint32_t bin_count = counts.load(slot);
    if (bin_count == 0) continue;
    sums.add_range_to(slot * d, d, out_sums, layout.slot(f, b, 0));
    out_counts.atomic_add(layout.bin_index(f, b), bin_count);
    flushed += d;
  }
  return flushed;
}

}  // namespace gbmo::core::detail
