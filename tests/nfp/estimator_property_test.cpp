// Property tests for the Eq. 1 estimator and the Eq. 3 error metrics over
// randomised inputs.
#include <gtest/gtest.h>

#include <random>

#include "nfp/error.h"
#include "nfp/estimator.h"
#include "nfp/scheme.h"
#include "support/eq1_reference.h"

namespace nfp::model {
namespace {

class EstimatorProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::mt19937_64 rng_{GetParam()};

  CategoryCosts random_costs(std::size_t n) {
    CategoryCosts costs;
    std::uniform_real_distribution<double> d(1.0, 500.0);
    for (std::size_t i = 0; i < n; ++i) {
      costs.energy_nj.push_back(d(rng_));
      costs.time_ns.push_back(d(rng_));
    }
    return costs;
  }

  CategoryCounts random_counts(std::size_t n) {
    CategoryCounts counts;
    for (std::size_t i = 0; i < n; ++i) counts.push_back(rng_() % 1000000);
    return counts;
  }
};

// Eq. 1 over the paper's categories, from per-category counts.
Estimate eq1_of(const CategoryCounts& n, const CategoryCosts& costs) {
  return eq1_estimator().estimate(
      test::run_with_category_counts(CategoryScheme::paper(), n), costs);
}

TEST_P(EstimatorProperties, AdditivityOverKernels) {
  // Running kernel A then kernel B costs the sum of their estimates
  // (the mechanistic model is linear by construction).
  const auto costs = random_costs(9);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_counts(9);
    const auto b = random_counts(9);
    CategoryCounts sum(9);
    for (std::size_t i = 0; i < 9; ++i) sum[i] = a[i] + b[i];
    const auto ea = eq1_of(a, costs);
    const auto eb = eq1_of(b, costs);
    const auto es = eq1_of(sum, costs);
    EXPECT_NEAR(es.energy_nj, ea.energy_nj + eb.energy_nj,
                1e-9 * es.energy_nj + 1e-9);
    EXPECT_NEAR(es.time_s, ea.time_s + eb.time_s, 1e-12 * es.time_s + 1e-15);
  }
}

TEST_P(EstimatorProperties, MonotoneInCounts) {
  const auto costs = random_costs(9);
  const auto base = random_counts(9);
  const auto e0 = eq1_of(base, costs);
  for (std::size_t c = 0; c < 9; ++c) {
    auto bumped = base;
    bumped[c] += 1000;
    const auto e1 = eq1_of(bumped, costs);
    EXPECT_GT(e1.energy_nj, e0.energy_nj) << "category " << c;
    EXPECT_GT(e1.time_s, e0.time_s) << "category " << c;
    // ... by exactly 1000 * the category cost.
    EXPECT_NEAR(e1.energy_nj - e0.energy_nj, 1000.0 * costs.energy_nj[c],
                1e-6);
  }
}

TEST_P(EstimatorProperties, SchemeAggregationCommutesWithEstimation) {
  // Estimating from per-op counts through eq1 over a scheme equals the
  // reference sum over the aggregated category counts, bit for bit.
  for (const auto* scheme : {&CategoryScheme::paper(),
                             &CategoryScheme::coarse(),
                             &CategoryScheme::fine()}) {
    const auto costs = random_costs(scheme->size());
    RunSample run;
    for (std::size_t i = 1; i < isa::kOpCount; ++i) {
      run.counts[i] = rng_() % 10000;
    }
    const auto direct = Eq1Estimator(*scheme).estimate(run, costs);
    const auto via_agg =
        test::eq1_reference(scheme->aggregate(run.counts), costs);
    EXPECT_EQ(direct.energy_nj, via_agg.energy_nj) << scheme->name();
    EXPECT_EQ(direct.time_s, via_agg.time_s) << scheme->name();
  }
}

TEST_P(EstimatorProperties, ErrorStatsBounds) {
  std::uniform_real_distribution<double> meas_d(1.0, 1e6);
  std::uniform_real_distribution<double> eps_d(-0.2, 0.2);
  std::vector<double> est, meas;
  double max_abs = 0;
  for (int i = 0; i < 100; ++i) {
    const double m = meas_d(rng_);
    const double eps = eps_d(rng_);
    meas.push_back(m);
    est.push_back(m * (1.0 + eps));
    max_abs = std::max(max_abs, std::abs(eps));
  }
  const auto stats = error_stats(est, meas);
  // mean <= max, max equals the largest injected epsilon.
  EXPECT_LE(stats.mean_abs, stats.max_abs + 1e-12);
  EXPECT_NEAR(stats.max_abs, max_abs, 1e-9);
  // every per-kernel epsilon is recovered within rounding.
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(stats.per_kernel[i], (est[i] - meas[i]) / meas[i], 1e-12);
  }
}

TEST_P(EstimatorProperties, PerfectEstimatesGiveZeroError) {
  std::uniform_real_distribution<double> d(1.0, 1e6);
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) values.push_back(d(rng_));
  const auto stats = error_stats(values, values);
  EXPECT_EQ(stats.mean_abs, 0.0);
  EXPECT_EQ(stats.max_abs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorProperties,
                         ::testing::Values(7u, 99u, 123456u));

}  // namespace
}  // namespace nfp::model
