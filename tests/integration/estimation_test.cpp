// End-to-end integration: the full paper pipeline (calibrate -> count ->
// estimate -> compare with measurement) on small kernel sets, asserting the
// headline property: low single-digit-percent estimation errors.
#include <gtest/gtest.h>

#include "board/area.h"
#include "nfp/calibration.h"
#include "nfp/campaign.h"
#include "nfp/dse.h"
#include "nfp/error.h"
#include "nfp/estimator.h"
#include "support/eq1_reference.h"
#include "workloads/kernels.h"

namespace nfp {
namespace {

struct Pipeline {
  board::BoardConfig cfg;
  model::CategoryCosts costs;

  Pipeline() {
    model::CalibrationPlan plan;
    plan.loops = 40'000;
    costs = model::Calibrator(plan).fit(model::eq1_estimator(), cfg).costs;
  }

  model::ErrorStats energy_errors(const std::vector<model::KernelJob>& jobs,
                                  model::ErrorStats* time_out = nullptr) {
    model::Campaign campaign(cfg);
    const auto records = campaign.run(jobs);
    std::vector<double> est_e, meas_e, est_t, meas_t;
    for (const auto& rec : records) {
      EXPECT_TRUE(rec.ok) << rec.name << ": " << rec.error;
      if (!rec.ok) continue;
      const auto est =
          model::eq1_estimator().estimate(model::run_sample(rec), costs);
      est_e.push_back(est.energy_nj);
      meas_e.push_back(rec.measured.energy_nj);
      est_t.push_back(est.time_s);
      meas_t.push_back(rec.measured.time_s);
    }
    if (time_out) *time_out = model::error_stats(est_t, meas_t);
    return model::error_stats(est_e, meas_e);
  }
};

Pipeline& pipeline() {
  static Pipeline instance;
  return instance;
}

TEST(EstimationPipeline, HevcKernelsWithinPaperErrorBand) {
  workloads::MvcKernelParams params;
  params.qps = {32};
  params.frames = 3;
  auto jobs = workloads::make_mvc_jobs(mcc::FloatAbi::kHard, params);
  jobs.resize(4);  // one stream per configuration
  model::ErrorStats time_stats;
  const auto energy = pipeline().energy_errors(jobs, &time_stats);
  EXPECT_LT(energy.mean_abs_percent(), 8.0);
  EXPECT_LT(energy.max_abs_percent(), 12.0);
  EXPECT_LT(time_stats.mean_abs_percent(), 8.0);
  EXPECT_LT(time_stats.max_abs_percent(), 12.0);
}

TEST(EstimationPipeline, FseKernelsWithinPaperErrorBand) {
  workloads::FseKernelParams params;
  params.count = 2;
  params.iterations = 24;
  std::vector<model::KernelJob> jobs;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    for (auto& j : workloads::make_fse_jobs(abi, params)) {
      jobs.push_back(std::move(j));
    }
  }
  model::ErrorStats time_stats;
  const auto energy = pipeline().energy_errors(jobs, &time_stats);
  EXPECT_LT(energy.mean_abs_percent(), 8.0);
  EXPECT_LT(time_stats.mean_abs_percent(), 8.0);
}

TEST(EstimationPipeline, IdealBoardIsNearExact) {
  // Property from DESIGN.md: with variation and meter noise disabled, the
  // mechanistic model's only residual errors are context effects the
  // calibration kernels share (essentially zero for matching mixes).
  board::BoardConfig ideal;
  ideal.enable_variation = false;
  ideal.enable_meter_noise = false;
  model::CalibrationPlan plan;
  plan.loops = 40'000;
  const auto costs =
      model::Calibrator(plan).fit(model::eq1_estimator(), ideal).costs;

  workloads::SobelKernelParams params;
  params.count = 2;
  auto jobs = workloads::make_sobel_jobs(mcc::FloatAbi::kHard, params);
  model::Campaign campaign(ideal);
  for (const auto& rec : campaign.run(jobs)) {
    ASSERT_TRUE(rec.ok) << rec.error;
    const auto est =
        model::eq1_estimator().estimate(model::run_sample(rec), costs);
    const auto want = test::eq1_reference(
        model::CategoryScheme::paper().aggregate(rec.counts), costs);
    EXPECT_EQ(est.energy_nj, want.energy_nj) << rec.name;
    EXPECT_EQ(est.time_s, want.time_s) << rec.name;
    // Remaining error: umul/udiv lumping and SDRAM row state only.
    EXPECT_NEAR(est.energy_nj / rec.measured.energy_nj, 1.0, 0.05);
    EXPECT_NEAR(est.time_s / rec.measured.time_s, 1.0, 0.06);
  }
}

TEST(EstimationPipeline, FpuImpactDirectionallyCorrect) {
  workloads::FseKernelParams params;
  params.count = 2;
  params.iterations = 16;
  const auto float_jobs = workloads::make_fse_jobs(mcc::FloatAbi::kHard, params);
  const auto fixed_jobs = workloads::make_fse_jobs(mcc::FloatAbi::kSoft, params);
  model::Campaign campaign(pipeline().cfg);
  std::vector<model::Estimate> with_fpu, soft;
  for (const auto& rec : campaign.run(float_jobs)) {
    ASSERT_TRUE(rec.ok);
    with_fpu.push_back(model::eq1_estimator().estimate(
        model::run_sample(rec), pipeline().costs));
  }
  for (const auto& rec : campaign.run(fixed_jobs)) {
    ASSERT_TRUE(rec.ok);
    soft.push_back(model::eq1_estimator().estimate(model::run_sample(rec),
                                                   pipeline().costs));
  }
  const auto impact = model::fpu_impact("fse", with_fpu, soft);
  EXPECT_LT(impact.energy_change_percent, -85.0);  // paper: -92.6%
  EXPECT_LT(impact.time_change_percent, -85.0);    // paper: -92.8%
  EXPECT_NEAR(impact.area_change_percent, 109.0, 2.0);
}

}  // namespace
}  // namespace nfp
