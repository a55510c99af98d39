#include <gtest/gtest.h>

#include "nfp/dse.h"
#include "nfp/error.h"
#include "nfp/estimator.h"
#include "nfp/report.h"
#include "nfp/scheme.h"
#include "support/eq1_reference.h"

namespace nfp::model {
namespace {

using isa::Op;

TEST(Scheme, PaperSchemeHasNineCategories) {
  const auto& s = CategoryScheme::paper();
  EXPECT_EQ(s.size(), 9u);
  EXPECT_EQ(s.category_name(0), "Integer Arithmetic");
  EXPECT_EQ(s.category_of(Op::kAdd), 0u);
  EXPECT_EQ(s.category_of(Op::kFdivd), 7u);
}

TEST(Scheme, AggregationSumsPerOpCounts) {
  OpCounts counts{};
  counts[static_cast<std::size_t>(Op::kAdd)] = 10;
  counts[static_cast<std::size_t>(Op::kSub)] = 5;
  counts[static_cast<std::size_t>(Op::kLd)] = 7;
  counts[static_cast<std::size_t>(Op::kFaddd)] = 2;
  const auto agg = CategoryScheme::paper().aggregate(counts);
  EXPECT_EQ(agg[0], 15u);  // int arith
  EXPECT_EQ(agg[2], 7u);   // load
  EXPECT_EQ(agg[6], 2u);   // fpu arith
}

TEST(Scheme, TotalCountPreservedAcrossSchemes) {
  OpCounts counts{};
  for (std::size_t i = 1; i < isa::kOpCount; ++i) counts[i] = i;
  for (const auto* scheme :
       {&CategoryScheme::paper(), &CategoryScheme::coarse(),
        &CategoryScheme::fine()}) {
    std::uint64_t total = 0;
    for (const auto n : scheme->aggregate(counts)) total += n;
    std::uint64_t expected = 0;
    for (const auto n : counts) expected += n;
    EXPECT_EQ(total, expected) << scheme->name();
  }
}

TEST(Scheme, FineSchemeSplitsMulDiv) {
  const auto& s = CategoryScheme::fine();
  EXPECT_NE(s.category_of(Op::kUmul), s.category_of(Op::kAdd));
  EXPECT_NE(s.category_of(Op::kUdiv), s.category_of(Op::kUmul));
  EXPECT_NE(s.category_of(Op::kFcmpd), s.category_of(Op::kFaddd));
}

// A two-category scheme: loads in one category, every other op in the
// other. eq1 works over it like over the shipped schemes.
const CategoryScheme& two_category_scheme() {
  static const CategoryScheme scheme = [] {
    std::array<std::uint8_t, isa::kOpCount> map{};
    map[static_cast<std::size_t>(Op::kLd)] = 1;
    return CategoryScheme("two", {"Integer", "Load"}, map);
  }();
  return scheme;
}

TEST(Estimator, LinearInCounts) {
  const auto& scheme = CategoryScheme::paper();
  CategoryCosts costs;
  costs.energy_nj = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  costs.time_ns = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  const CategoryCounts a(9, 10);
  const CategoryCounts b(9, 30);
  const auto ea = eq1_estimator().estimate(
      test::run_with_category_counts(scheme, a), costs);
  const auto eb = eq1_estimator().estimate(
      test::run_with_category_counts(scheme, b), costs);
  EXPECT_DOUBLE_EQ(eb.energy_nj, 3.0 * ea.energy_nj);
  EXPECT_DOUBLE_EQ(eb.time_s, 3.0 * ea.time_s);
  const auto want = test::eq1_reference(b, costs);
  EXPECT_EQ(eb.energy_nj, want.energy_nj);
  EXPECT_EQ(eb.time_s, want.time_s);
}

TEST(Estimator, MatchesHandComputation) {
  CategoryCosts costs;
  costs.energy_nj = {15, 76};
  costs.time_ns = {45, 238};
  RunSample run;
  run.counts[static_cast<std::size_t>(Op::kAdd)] = 60;
  run.counts[static_cast<std::size_t>(Op::kSub)] = 40;
  run.counts[static_cast<std::size_t>(Op::kLd)] = 10;
  const auto e = Eq1Estimator(two_category_scheme()).estimate(run, costs);
  EXPECT_DOUBLE_EQ(e.energy_nj, 100 * 15.0 + 10 * 76.0);
  EXPECT_DOUBLE_EQ(e.time_s, (100 * 45.0 + 10 * 238.0) * 1e-9);
  const auto want = test::eq1_reference(CategoryCounts{100, 10}, costs);
  EXPECT_EQ(e.energy_nj, want.energy_nj);
  EXPECT_EQ(e.time_s, want.time_s);
}

TEST(Estimator, SizeMismatchThrows) {
  CategoryCosts costs;
  costs.energy_nj = {1.0};
  costs.time_ns = {1.0};
  EXPECT_THROW(Eq1Estimator(two_category_scheme()).estimate({}, costs),
               std::invalid_argument);
}

TEST(ErrorStats, MatchesEquationThree) {
  // est 103 vs meas 100 -> +3%; est 95 vs 100 -> -5%.
  const auto stats = error_stats({103, 95}, {100, 100});
  EXPECT_NEAR(stats.per_kernel[0], 0.03, 1e-12);
  EXPECT_NEAR(stats.per_kernel[1], -0.05, 1e-12);
  EXPECT_NEAR(stats.mean_abs_percent(), 4.0, 1e-9);
  EXPECT_NEAR(stats.max_abs_percent(), 5.0, 1e-9);
}

TEST(ErrorStats, RefusesDegenerateInputWithoutThrowing) {
  // One broken kernel must never abort a whole campaign report: degenerate
  // inputs come back as a structured refusal, not an exception.
  const auto empty = error_stats({}, {});
  EXPECT_FALSE(empty.ok);
  EXPECT_EQ(empty.refusal, "empty-input");

  const auto mismatch = error_stats({1.0, 2.0}, {1.0});
  EXPECT_FALSE(mismatch.ok);
  EXPECT_EQ(mismatch.refusal, "size-mismatch");

  const auto zeros = error_stats({1.0}, {0.0});
  EXPECT_FALSE(zeros.ok);
  EXPECT_EQ(zeros.refusal, "all-measurements-zero");
  EXPECT_EQ(zeros.skipped_zero, 1u);
  EXPECT_EQ(zeros.mean_abs, 0.0);
  EXPECT_EQ(zeros.max_abs, 0.0);
}

TEST(ErrorStats, SkipsZeroMeasurementsButKeepsTheRest) {
  // A relative error against zero is undefined, not infinite: the kernel is
  // excluded and counted, the remaining set still produces Eq. 3 stats.
  const auto stats = error_stats({2.0, 1.1}, {0.0, 1.0});
  EXPECT_TRUE(stats.ok);
  EXPECT_TRUE(stats.refusal.empty());
  EXPECT_EQ(stats.skipped_zero, 1u);
  ASSERT_EQ(stats.per_kernel.size(), 1u);
  EXPECT_NEAR(stats.per_kernel[0], 0.1, 1e-12);
  EXPECT_NEAR(stats.mean_abs, 0.1, 1e-12);
  EXPECT_NEAR(stats.max_abs, 0.1, 1e-12);
}

TEST(Dse, FpuImpactMeansPerKernelChanges) {
  // Kernel 1: FPU halves energy; kernel 2: FPU quarters it.
  std::vector<Estimate> with_fpu = {{50, 0.5}, {25, 0.25}};
  std::vector<Estimate> soft = {{100, 1.0}, {100, 1.0}};
  const auto impact = fpu_impact("toy", with_fpu, soft);
  EXPECT_NEAR(impact.energy_change_percent, (-50.0 + -75.0) / 2, 1e-9);
  EXPECT_NEAR(impact.time_change_percent, (-50.0 + -75.0) / 2, 1e-9);
  EXPECT_NEAR(impact.area_change_percent, 109.0, 1.0);
}

TEST(Report, RendersAlignedTable) {
  TextTable t({"Category", "Value"});
  t.add_row({"Integer", "15"});
  t.add_row({"Load", "229"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Category |"), std::string::npos);
  EXPECT_NE(s.find("| Load     |"), std::string::npos);
}

}  // namespace
}  // namespace nfp::model
