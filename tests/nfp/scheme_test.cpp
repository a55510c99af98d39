// Category-scheme and estimation-scheme layer invariants:
//   - every CategoryScheme maps every retired op to an in-range category
//     (totality), and aggregation conserves the op total;
//   - the estimator registry is complete and lookups are exact;
//   - the "eq1" scheme is bit-identical to the straight-line Eq. 1 sum
//     (support/eq1_reference.h);
//   - feature vectors honor the advertised term count and feed only on what
//     needs_board_run() promises.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "nfp/estimator.h"
#include "nfp/scheme.h"
#include "support/eq1_reference.h"

namespace nfp::model {
namespace {

std::vector<const CategoryScheme*> all_schemes() {
  return {&CategoryScheme::paper(), &CategoryScheme::coarse(),
          &CategoryScheme::fine()};
}

TEST(CategoryScheme, EveryOpMapsToAnInRangeCategory) {
  for (const CategoryScheme* scheme : all_schemes()) {
    ASSERT_GT(scheme->size(), 0u) << scheme->name();
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      const auto op = static_cast<isa::Op>(i);
      EXPECT_LT(scheme->category_of(op), scheme->size())
          << scheme->name() << " op " << i;
    }
  }
}

TEST(CategoryScheme, EveryCategoryNameIsUniqueAndNonEmpty) {
  for (const CategoryScheme* scheme : all_schemes()) {
    std::set<std::string> names;
    for (std::size_t c = 0; c < scheme->size(); ++c) {
      EXPECT_FALSE(scheme->category_name(c).empty())
          << scheme->name() << " category " << c;
      EXPECT_TRUE(names.insert(scheme->category_name(c)).second)
          << scheme->name() << " duplicate " << scheme->category_name(c);
    }
  }
}

TEST(CategoryScheme, AggregationConservesTheOpTotal) {
  std::mt19937_64 rng{2026};
  for (int trial = 0; trial < 20; ++trial) {
    OpCounts ops{};
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      ops[i] = rng() % 100000;
      total += ops[i];
    }
    for (const CategoryScheme* scheme : all_schemes()) {
      const CategoryCounts agg = scheme->aggregate(ops);
      ASSERT_EQ(agg.size(), scheme->size()) << scheme->name();
      std::uint64_t agg_total = 0;
      for (const std::uint64_t n : agg) agg_total += n;
      EXPECT_EQ(agg_total, total) << scheme->name();
    }
  }
}

TEST(EstimatorRegistry, AllSchemesRegisteredAndFindable) {
  const auto all = all_estimators();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name(), "eq1");  // stable order, eq1 first (the default)
  std::set<std::string> names;
  for (const Estimator* e : all) {
    EXPECT_TRUE(names.insert(std::string(e->name())).second);
    EXPECT_EQ(find_estimator(e->name()), e);
    EXPECT_GT(e->terms(), 0u);
    for (std::size_t t = 0; t < e->terms(); ++t) {
      EXPECT_FALSE(e->term_name(t).empty())
          << e->name() << " term " << t;
    }
  }
  EXPECT_EQ(find_estimator("no-such-scheme"), nullptr);
  EXPECT_EQ(find_estimator(""), nullptr);
  // The CLI help string names every scheme.
  const std::string known = estimator_names();
  for (const Estimator* e : all) {
    EXPECT_NE(known.find(e->name()), std::string::npos) << known;
  }
}

TEST(EstimatorRegistry, OnlyEq1WorksWithoutABoardRun) {
  EXPECT_FALSE(eq1_estimator().needs_board_run());
  EXPECT_TRUE(events_estimator().needs_board_run());
  EXPECT_TRUE(time_proxy_estimator().needs_board_run());
}

TEST(Estimator, FeatureVectorsMatchTheAdvertisedTermCount) {
  std::mt19937_64 rng{7};
  RunSample run;
  for (auto& c : run.counts) c = rng() % 10000;
  for (auto& v : run.events.v) v = rng() % 10000;
  run.instret = 123456;
  run.measured_time_s = 0.25;
  for (const Estimator* e : all_estimators()) {
    EXPECT_EQ(e->features(run).size(), e->terms()) << e->name();
  }
}

TEST(Estimator, Eq1IsBitIdenticalToTheLegacyPipeline) {
  // The behavior-preservation guarantee at the unit level: the same costs
  // and counts through the scheme interface and through the reference sum
  // produce the same doubles, compared for equality.
  std::mt19937_64 rng{42};
  const auto& scheme = CategoryScheme::paper();
  CategoryCosts costs;
  std::uniform_real_distribution<double> d(0.1, 300.0);
  for (std::size_t c = 0; c < scheme.size(); ++c) {
    costs.energy_nj.push_back(d(rng));
    costs.time_ns.push_back(d(rng));
  }
  for (int trial = 0; trial < 100; ++trial) {
    RunSample run;
    for (auto& c : run.counts) c = rng() % 5000000;
    const Estimate via_scheme = eq1_estimator().estimate(run, costs);
    const Estimate want = test::eq1_reference(scheme.aggregate(run.counts),
                                              costs);
    EXPECT_EQ(via_scheme.energy_nj, want.energy_nj);
    EXPECT_EQ(via_scheme.time_s, want.time_s);
  }
}

TEST(Estimator, EventsFeaturesAreTheCounterVector) {
  RunSample run;
  for (std::size_t i = 0; i < board::kEventCount; ++i) {
    run.events.v[i] = 100 + i;
  }
  const auto x = events_estimator().features(run);
  ASSERT_EQ(x.size(), board::kEventCount);
  for (std::size_t i = 0; i < board::kEventCount; ++i) {
    EXPECT_EQ(x[i], static_cast<double>(100 + i));
    // Term names mirror the exported counter names.
    EXPECT_EQ(events_estimator().term_name(i),
              std::string(board::event_name(static_cast<board::Event>(i))));
  }
}

TEST(Estimator, TimeProxyFeatureIsTheMeasuredTime) {
  RunSample run;
  run.measured_time_s = 0.125;
  const auto x = time_proxy_estimator().features(run);
  ASSERT_EQ(x.size(), 1u);
  EXPECT_EQ(x[0], 0.125);
}

TEST(Estimator, MismatchedCoefficientArityIsRejected) {
  RunSample run;
  CategoryCosts wrong;
  wrong.energy_nj.assign(3, 1.0);
  wrong.time_ns.assign(3, 1.0);
  EXPECT_THROW(eq1_estimator().estimate(run, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace nfp::model
