// Self-tests of gbmobench/stats.h. The quartile expectations are the values
// Python's statistics.quantiles(data, n=4) returns for the same data, which
// is what the spread rule of the benchmark is defined by.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g want %.17g\n", what, got, want);
    ++failures;
  }
}

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

void test_median() {
  using gbmobench::median;
  expect_near(median({3.0}), 3.0, "median of one");
  expect_near(median({1.0, 2.0}), 1.5, "median of two");
  expect_near(median({5, 1, 4, 2, 3}), 3.0, "median odd unsorted");
  expect_near(median({4, 1, 3, 2}), 2.5, "median even unsorted");
  bool threw = false;
  try {
    median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of no samples throws");
}

void test_quartiles() {
  struct Case {
    std::vector<double> data;
    double q1, q2, q3;
  };
  const std::vector<Case> cases = {
      {{1, 2}, 0.75, 1.5, 2.25},
      {{1, 2, 3}, 1.0, 2.0, 3.0},
      {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
      {{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{0.5, 0.25, 2.0, 8.0, 1.0, 4.0, 16.0}, 0.5, 2.0, 8.0},
  };
  for (const auto& c : cases) {
    const auto q = gbmobench::quartiles(c.data);
    expect_near(q.q1, c.q1, "q1");
    expect_near(q.q2, c.q2, "q2");
    expect_near(q.q3, c.q3, "q3");
  }
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const auto p99 = gbmobench::percentile(v, 99.0);
  expect_near(p99.value, 990.0, "p99 nearest rank");
  expect(p99.beyond == 10 && p99.n == 1000 && p99.supported(), "p99 has 10 beyond");
  const auto p100 = gbmobench::percentile(v, 100.0);
  expect(p100.value == 1000.0 && p100.beyond == 0 && !p100.supported(), "p100");

  // 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
  const auto top = gbmobench::highest_supported_percentile(v);
  expect(top.percentile == 99.0 && top.beyond == 10, "highest supported of 1000");
  // 100 samples: p90 has exactly 10 beyond, p95 only 5.
  const std::vector<double> hundred(v.begin(), v.begin() + 100);
  const auto t100 = gbmobench::highest_supported_percentile(hundred);
  expect(t100.percentile == 90.0 && t100.value == 90.0 && t100.beyond == 10,
         "highest supported of 100");
  // 12 samples: nothing above the median has 10 beyond; the median is
  // returned with its (insufficient) count.
  const std::vector<double> twelve(v.begin(), v.begin() + 12);
  const auto t12 = gbmobench::highest_supported_percentile(twelve);
  expect(t12.percentile == 50.0 && t12.beyond == 6 && !t12.supported(),
         "fallback to median");
}

void test_share() {
  const gbmobench::Share s{3, 20000};
  expect_near(s.value(), 3.0 / 20000.0, "share value");
  expect(s.str() == "3/20000", "share string");
  expect(gbmobench::Share{0, 0}.value() == 0.0, "empty base");
}

}  // namespace

int main() {
  test_median();
  test_quartiles();
  test_percentiles();
  test_share();
  if (failures != 0) {
    std::fprintf(stderr, "%d stats self-test failure(s)\n", failures);
    return 1;
  }
  std::printf("stats self-test: ok\n");
  return 0;
}
