// Statistics helpers of the benchmark: median, quartiles, tail percentiles
// that say how many samples lie beyond them, and failure shares with their
// base. Header-only so the self-test links nothing else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace gbmobench {

inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

// Same cut points as Python's statistics.quantiles(v, n=4) (its default
// "exclusive" method), which defines the run-to-run spread of a metric.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

// A nearest-rank percentile together with the number of samples strictly
// above its rank, so a reader can see whether the tail is supported.
struct Tail {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;
  std::size_t n = 0;        // samples the percentile was taken over
  std::size_t beyond = 0;   // samples ranked above it
  bool supported() const { return beyond >= kMinBeyond; }
  static constexpr std::size_t kMinBeyond = 10;
};

// Nearest-rank percentile p of v (p in (0, 100]).
inline Tail percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile out of range");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return {p, v[rank - 1], n, n - rank};
}

// The highest of the usual reporting percentiles that has at least
// Tail::kMinBeyond samples beyond it; falls back to the median when even
// that is unsupported (beyond is then below the minimum, and says so).
inline Tail highest_supported_percentile(const std::vector<double>& v) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    Tail t = percentile(v, p);
    if (t.supported()) return t;
  }
  return percentile(v, 50.0);
}

// A failure share with its base, e.g. "3/20000".
struct Share {
  std::uint64_t count = 0;
  std::uint64_t base = 0;
  double value() const {
    return base == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(base);
  }
  std::string str() const {
    return std::to_string(count) + "/" + std::to_string(base);
  }
};

}  // namespace gbmobench
