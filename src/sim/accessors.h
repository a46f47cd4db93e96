// Counted and/or checked memory accessors.
//
// Kernels touch global and shared memory through these wrappers so the
// substrate can account traffic without kernels littering counter updates.
// The declared access pattern decides how bytes convert to transactions:
//   - Coalesced: consecutive lanes touch consecutive addresses; bytes are
//     serviced at full transaction width.
//   - Random:    every access is its own 32-byte transaction (gather).
//   - Broadcast: one transaction serves the whole warp (uniform loads).
//
// A view operates in one of two modes:
//   - counting (the original constructors, KernelStats&): every access is
//     charged to the stats. Used where per-access accounting is wanted.
//   - checked (built by BlockCtx::global_view / BlockCtx::shared_view):
//     accesses are NOT counted — the kernels keep their exact bulk
//     KernelStats tallies, preserving bit-identical profiles — but they are
//     observed by the race/memory checker (sim/checker.h) when it is armed.
//     With the checker off the checked view is a raw passthrough (one null
//     check per access).
// Out-of-bounds accesses under an armed checker are recorded and suppressed
// (loads return T{}, stores are dropped) so the checker itself is safe.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "sim/checker.h"
#include "sim/counters.h"

namespace gbmo::sim {

enum class Access : std::uint8_t { kCoalesced, kRandom, kBroadcast };

template <typename T>
class Global {
 public:
  // Counting, unchecked view (the original accessor).
  Global(std::span<T> data, KernelStats& stats, Access pattern = Access::kCoalesced)
      : data_(data), stats_(&stats), pattern_(pattern) {}

  // Checked, non-counting view; `check` may be null (checker off), which
  // makes every operation a plain array access.
  Global(std::span<T> data, BlockCheck* check, const char* name)
      : data_(data),
        check_(check),
        region_(check != nullptr
                    ? check->global_region(data.data(), data.size(), name)
                    : nullptr) {}

  T load(std::size_t i) const {
    if (check_ != nullptr && !check_->on_global_load(region_, i)) return T{};
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) count(sizeof(T));
    return data_[i];
  }

  void store(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_global_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) count(sizeof(T));
    data_[i] = v;
  }

  // Non-atomic read-modify-write (a plain `x[i] += v`). Under the checker
  // this is a write touch: outside BlockCtx::commit it must stay
  // block-partitioned, exactly like store().
  void add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_global_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) count(2 * sizeof(T));
    data_[i] += v;
  }

  // Atomic add with same-address conflict tracking. The plain add is
  // race-free within a block (block phases run on one host thread). Blocks
  // may execute concurrently on parallel scheduler workers, so cross-block
  // targets must either be block-partitioned (disjoint writes) or the adds
  // must happen inside BlockCtx::commit — the deterministic-accumulation
  // rule in sim/launch.h, which is also what the checker enforces.
  void atomic_add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_global_store(region_, i, true)) return;
    GBMO_DCHECK(i < data_.size());
    data_[i] += v;
    if (stats_ != nullptr) {
      ++stats_->atomic_global_ops;
      stats_->atomic_global_conflicts +=
          conflicts_.note(reinterpret_cast<std::uintptr_t>(&data_[i]));
    }
  }

  // n atomic adds data_[i + k] += src[k]. Made one by one, exactly as n
  // atomic_add calls, when the view is checked or counting or the range
  // overruns; otherwise one plain loop.
  void atomic_add_range(std::size_t i, const T* src, std::size_t n) {
    if (check_ != nullptr || stats_ != nullptr || i + n > data_.size()) {
      for (std::size_t k = 0; k < n; ++k) atomic_add(i + k, src[k]);
      return;
    }
    T* p = data_.data() + i;
    for (std::size_t k = 0; k < n; ++k) p[k] += src[k];
  }

  std::size_t size() const { return data_.size(); }
  std::span<T> raw() { return data_; }

 private:
  void count(std::size_t bytes) const {
    if (pattern_ == Access::kRandom) {
      ++stats_->gmem_random_accesses;
    } else if (pattern_ == Access::kBroadcast) {
      // Whole warp served by one transaction: charge 1/32 of a 32B line.
      stats_->gmem_coalesced_bytes += 1;
    } else {
      stats_->gmem_coalesced_bytes += bytes;
    }
  }

  std::span<T> data_;
  KernelStats* stats_ = nullptr;
  Access pattern_ = Access::kCoalesced;
  BlockCheck* check_ = nullptr;
  GlobalRegionShadow* region_ = nullptr;
  mutable ConflictTracker conflicts_;
};

// Shared-memory array scoped to a block phase. Sized against the device's
// shared memory budget by the caller (histogram tiling computes the fit).
// The checked view additionally tracks per-word last writers/readers with
// the block's barrier epoch, flagging same-epoch cross-lane hazards and
// reads of never-written words in SharedInit::kUndefined regions.
template <typename T>
class Shared {
 public:
  // Counting, unchecked view (the original accessor).
  Shared(std::vector<T>& storage, KernelStats& stats)
      : data_(storage), stats_(&stats) {}

  // Checked, non-counting view; create it after the backing vector has its
  // final size (the shadow is sized at construction).
  Shared(std::vector<T>& storage, BlockCheck* check, const char* name,
         SharedInit init)
      : data_(storage),
        check_(check),
        region_(check != nullptr ? check->shared_region(storage.data(),
                                                        storage.size(), name,
                                                        init)
                                 : nullptr) {}

  T load(std::size_t i) const {
    if (check_ != nullptr && !check_->on_shared_load(region_, i)) return T{};
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) stats_->smem_bytes += sizeof(T);
    return data_[i];
  }

  void store(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_shared_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) stats_->smem_bytes += sizeof(T);
    data_[i] = v;
  }

  // Non-atomic read-modify-write; races with other lanes in the same epoch.
  void add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_shared_store(region_, i, false)) return;
    GBMO_DCHECK(i < data_.size());
    if (stats_ != nullptr) stats_->smem_bytes += 2 * sizeof(T);
    data_[i] += v;
  }

  void atomic_add(std::size_t i, const T& v) {
    if (check_ != nullptr && !check_->on_shared_store(region_, i, true)) return;
    GBMO_DCHECK(i < data_.size());
    data_[i] += v;
    if (stats_ != nullptr) {
      ++stats_->atomic_shared_ops;
      stats_->atomic_shared_conflicts +=
          conflicts_.note(reinterpret_cast<std::uintptr_t>(&data_[i]));
    }
  }

  // d-wide gradient-pair atomic add: data_[i + k] += {g[k], h[k]} for
  // k < n, for a T with float members g and h (GradPair). Equivalent to n
  // atomic_add calls, and it makes them when the view is checked or
  // counting (the checker sees every word, a counting view charges each) or
  // when the range overruns (so the per-word bounds checks fire). Otherwise
  // it is one loop that -O2 turns into vector adds; every slot still
  // receives exactly one float add, so the result is unchanged.
  void atomic_add_pairs(std::size_t i, const float* g, const float* h,
                        std::size_t n) {
    if (check_ != nullptr || stats_ != nullptr || i + n > data_.size()) {
      add_pairs_each(i, g, h, n);
      return;
    }
    T* p = data_.data() + i;
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      // Interleave four g/h pairs (two vector loads and unpacks), then add
      // them to the four slots (two vector adds). All loads come before the
      // stores, so no alias check is needed.
      float gh[8];
      for (int j = 0; j < 4; ++j) {
        gh[2 * j] = g[k + j];
        gh[2 * j + 1] = h[k + j];
      }
      for (int j = 0; j < 4; ++j) {
        p[k + j].g += gh[2 * j];
        p[k + j].h += gh[2 * j + 1];
      }
    }
    for (; k < n; ++k) {
      p[k].g += g[k];
      p[k].h += h[k];
    }
  }

  // Adds words [i, i + n) into dst[j, j + n): the loads and atomic adds of
  // n `dst.atomic_add(j + k, load(i + k))` calls, which it makes when this
  // view is checked or counting or the range overruns.
  void add_range_to(std::size_t i, std::size_t n, Global<T>& dst,
                    std::size_t j) const {
    if (check_ != nullptr || stats_ != nullptr || i + n > data_.size()) {
      for (std::size_t k = 0; k < n; ++k) dst.atomic_add(j + k, load(i + k));
      return;
    }
    dst.atomic_add_range(j, data_.data() + i, n);
  }

  std::size_t size() const { return data_.size(); }

 private:
  // The per-word path of atomic_add_pairs, kept out of line so the plain
  // loop compiles without its register and stack cost.
  [[gnu::noinline]] void add_pairs_each(std::size_t i, const float* g,
                                        const float* h, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) atomic_add(i + k, T{g[k], h[k]});
  }

  std::vector<T>& data_;
  KernelStats* stats_ = nullptr;
  BlockCheck* check_ = nullptr;
  BlockCheck::SharedRegion* region_ = nullptr;
  mutable ConflictTracker conflicts_;
};

}  // namespace gbmo::sim
