// CI-sized slice of the cross-scheme accuracy triangle (the full 120-kernel
// sweep is part of bench/bench_paper.cpp): a dozen real MVC + FSE
// kernels at reduced sizes, one campaign scored under every registered
// estimation scheme. The hard invariants mirror the bench:
//
//   - behavior preservation: the "eq1" scheme's estimates are bit-identical
//     to the straight-line Eq. 1 sum (support/eq1_reference.h) per kernel;
//   - every fitted scheme stays calibratable on the default board and lands
//     within a (generous) accuracy envelope on real kernels, so a fit
//     regression that silently destroys extrapolation fails CI.
//
// Registered under the scheme_accuracy ctest label so CI can select it with
// `ctest -L scheme_accuracy`.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "board/config.h"
#include "nfp/calibration.h"
#include "nfp/campaign.h"
#include "nfp/error.h"
#include "nfp/estimator.h"
#include "support/eq1_reference.h"
#include "workloads/kernels.h"

namespace nfp::model {
namespace {

std::vector<KernelJob> smoke_jobs() {
  // Reduced-size kernels keep one ctest shard under a few seconds while
  // still exercising FPU, soft-float, memory and branch behavior.
  workloads::MvcKernelParams mvc;
  mvc.width = 16;
  mvc.height = 16;
  mvc.frames = 2;
  mvc.qps = {10, 45};
  workloads::FseKernelParams fse;
  fse.iterations = 6;
  fse.count = 3;
  std::vector<KernelJob> jobs;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    for (auto& j : workloads::make_mvc_jobs(abi, mvc)) {
      jobs.push_back(std::move(j));
    }
    for (auto& j : workloads::make_fse_jobs(abi, fse)) {
      jobs.push_back(std::move(j));
    }
  }
  if (jobs.size() > 12) jobs.resize(12);
  return jobs;
}

struct SchemeScore {
  ErrorStats energy;
  ErrorStats time;
};

SchemeScore score(const std::vector<KernelRunRecord>& records,
                  const Estimator& estimator, const CategoryCosts& costs) {
  std::vector<double> est_e, meas_e, est_t, meas_t;
  for (const auto& rec : records) {
    if (!rec.ok) continue;
    const Estimate est = estimator.estimate(run_sample(rec), costs);
    est_e.push_back(est.energy_nj);
    meas_e.push_back(rec.measured.energy_nj);
    est_t.push_back(est.time_s);
    meas_t.push_back(rec.measured.time_s);
  }
  return {error_stats(est_e, meas_e), error_stats(est_t, meas_t)};
}

TEST(SchemeAccuracySmoke, AllSchemesCalibrateAndStayInsideTheEnvelope) {
  const auto jobs = smoke_jobs();
  ASSERT_GE(jobs.size(), 12u);
  const board::BoardConfig cfg;

  // Smaller Table-II kernels than the default plan: calibration quality is
  // the benches' concern, this tier guards the machinery.
  CalibrationPlan plan;
  plan.loops = 20'000;
  const Calibrator calibrator(plan);

  const auto records = Campaign(cfg).run(jobs);
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.ok) << rec.name << ": " << rec.error;
  }

  for (const Estimator* est : all_estimators()) {
    const SchemeCalibration calib = calibrator.fit(*est, cfg);
    EXPECT_EQ(calib.scheme, est->name());
    ASSERT_EQ(calib.costs.energy_nj.size(), est->terms()) << est->name();
    ASSERT_EQ(calib.costs.time_ns.size(), est->terms()) << est->name();
    EXPECT_GT(calib.samples, 0u) << est->name();
    for (std::size_t t = 0; t < est->terms(); ++t) {
      EXPECT_TRUE(std::isfinite(calib.costs.energy_nj[t]))
          << est->name() << " term " << calib.term_names[t];
      EXPECT_TRUE(std::isfinite(calib.costs.time_ns[t]))
          << est->name() << " term " << calib.term_names[t];
    }

    const SchemeScore s = score(records, *est, calib.costs);
    ASSERT_TRUE(s.energy.ok) << est->name() << ": " << s.energy.refusal;
    ASSERT_TRUE(s.time.ok) << est->name() << ": " << s.time.refusal;
    // Generous envelopes — the bench tracks the real numbers (eq1 ~1-4%,
    // events ~2-18%, time-proxy ~1-4% energy / exact time on the reduced
    // kernels). A fit regression like the one the row-stride excitation
    // pair exists to prevent shows up as errors in the 1e4..1e6% range.
    EXPECT_LT(s.energy.mean_abs, 0.60) << est->name();
    EXPECT_LT(s.time.mean_abs, 0.60) << est->name();
  }
}

TEST(SchemeAccuracySmoke, Eq1SchemeIsBitIdenticalOnRealKernels) {
  const auto jobs = smoke_jobs();
  const board::BoardConfig cfg;
  CalibrationPlan plan;
  plan.loops = 20'000;
  const Calibrator calibrator(plan);

  // The eq1 coefficients are Eq. 2 over the recorded per-category readings,
  // and estimates through the scheme interface the same doubles as the
  // reference sum, kernel for kernel.
  const SchemeCalibration fitted = calibrator.fit(eq1_estimator(), cfg);
  ASSERT_EQ(fitted.costs.size(), CategoryScheme::paper().size());
  ASSERT_EQ(fitted.details.size(), fitted.costs.size());
  for (std::size_t c = 0; c < fitted.details.size(); ++c) {
    const CategoryCalibration& d = fitted.details[c];
    const double n = static_cast<double>(std::uint64_t{plan.loops} *
                                         plan.per_loop);
    EXPECT_EQ(fitted.costs.energy_nj[c], (d.e_test_nj - d.e_ref_nj) / n)
        << d.category;
    EXPECT_EQ(fitted.costs.time_ns[c], (d.t_test_s - d.t_ref_s) * 1e9 / n)
        << d.category;
  }

  const auto records = Campaign(cfg).run(jobs);
  for (const auto& rec : records) {
    ASSERT_TRUE(rec.ok) << rec.name;
    const Estimate via_scheme =
        eq1_estimator().estimate(run_sample(rec), fitted.costs);
    const Estimate want = test::eq1_reference(
        CategoryScheme::paper().aggregate(rec.counts), fitted.costs);
    EXPECT_EQ(via_scheme.energy_nj, want.energy_nj) << rec.name;
    EXPECT_EQ(via_scheme.time_s, want.time_s) << rec.name;
  }
}

}  // namespace
}  // namespace nfp::model
