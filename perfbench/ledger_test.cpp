// Tests of the benchmark's own rules: percentile sample support, shard-class
// boundaries and the category -> layer map. run.py runs this binary before
// every measurement and refuses to measure if it fails.
#include <cstdio>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace {

int g_failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

void test_percentile_support() {
  using perfbench::percentile_supported;
  using perfbench::samples_beyond;
  // p50 needs 20 samples, p90 needs 100, p99 needs 1000.
  expect(samples_beyond(20, 0.5) == 10, "20 samples: 10 beyond p50");
  expect(percentile_supported(20, 0.5), "p50 of 20 is supported");
  expect(!percentile_supported(19, 0.5), "p50 of 19 is not");
  expect(percentile_supported(100, 0.9), "p90 of 100 is supported");
  expect(!percentile_supported(99, 0.9), "p90 of 99 is not");
  expect(!percentile_supported(20, 0.99), "p99 of a handful is refused");
  expect(!percentile_supported(999, 0.99), "p99 of 999 is not");
  expect(percentile_supported(1000, 0.99), "p99 of 1000 is supported");
  expect(!percentile_supported(0, 0.5), "no samples, no percentile");
}

void test_order_statistics() {
  using perfbench::median;
  using perfbench::percentile;
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 2, 3}) == 2.5, "even median");
  expect(perfbench::iq_mean({1, 2, 3, 100}) == 2.5, "iq_mean drops the extremes");
  expect(perfbench::iq_mean({4, 6}) == 5, "iq_mean of two is their mean");
  // Bimodal: 6 fast samples of 30 and 5 slow of 50. The median is a fast
  // sample; the interquartile mean sits between the modes.
  const double m = perfbench::iq_mean({30, 30, 30, 30, 30, 30, 50, 50, 50, 50, 50});
  expect(m > 30 && m < 50, "iq_mean of a bimodal sample lies between modes");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(percentile(v, 0.5) == 50, "nearest-rank p50 of 1..100");
  expect(percentile(v, 0.9) == 90, "nearest-rank p90 of 1..100");
  expect(percentile({7}, 0.9) == 7, "single sample");
}

void test_class_boundaries() {
  using perfbench::class_margin;
  using perfbench::clear_of_class_boundaries;
  // Four equal classes put p50 exactly on the class-1/2 edge.
  expect(!clear_of_class_boundaries({25, 25, 25, 25}, 0.5, 2),
         "4 equal classes: p50 sits on a boundary");
  expect(!clear_of_class_boundaries({26, 26, 25, 25}, 0.5, 2),
         "4 near-equal classes: p50 within a rank of a boundary");
  // Five equal classes put p50 and p90 in the middle of a class.
  expect(clear_of_class_boundaries({100, 100, 100, 100, 100}, 0.5,
                                   class_margin(500)),
         "5 classes of 100: p50 mid-class");
  expect(clear_of_class_boundaries({100, 100, 100, 100, 100}, 0.9,
                                   class_margin(500)),
         "5 classes of 100: p90 mid-class");
  // One class has no boundary inside.
  expect(clear_of_class_boundaries({20}, 0.5, class_margin(20)),
         "homogeneous rooms: p50 clear");
  // Unequal classes: 3 heavy ranks push p50 into the lightest class.
  expect(clear_of_class_boundaries({60, 20, 20}, 0.5, 5), "p50 inside class 0");
  expect(!clear_of_class_boundaries({50, 25, 25}, 0.5, 1),
         "p50 is the last rank of class 0");
  expect(class_margin(500) == 25 && class_margin(20) == 2,
         "margin is 5% of the rooms, at least 2");
}

void test_category_map() {
  expect(perfbench::unmapped_categories().empty(),
         "every sim::EventCategory maps to one distinct layer");
  using aroma::sim::EventCategory;
  expect(perfbench::layer_of(EventCategory::kMac) == "phys.mac", "mac -> phys");
  expect(perfbench::layer_of(EventCategory::kRadio) == "env.radio",
         "radio -> env");
  expect(perfbench::layer_of(static_cast<EventCategory>(200)).empty(),
         "an unknown category has no layer");
}

}  // namespace

int main() {
  test_percentile_support();
  test_order_statistics();
  test_class_boundaries();
  test_category_map();
  if (g_failures != 0) {
    std::fprintf(stderr, "ledger_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "ledger_test: ok\n");
  return 0;
}
