// Shared machinery for the paper-reproduction benches: calibrate the NFP
// model on the board, run kernel campaigns, and tabulate estimated vs
// measured energy/time (Eq. 1-3).
#pragma once

#include <string>
#include <vector>

#include "board/config.h"
#include "nfp/calibration.h"
#include "nfp/campaign.h"
#include "nfp/error.h"
#include "nfp/estimator.h"
#include "nfp/report.h"
#include "nfp/scheme.h"

namespace nfp::benchkit {

struct KernelEval {
  std::string name;
  bool ok = false;
  std::string error;
  std::uint64_t instret = 0;
  model::Estimate estimated;
  double measured_energy_nj = 0.0;
  double measured_time_s = 0.0;
};

struct EvalResult {
  std::vector<KernelEval> kernels;
  model::ErrorStats energy;
  model::ErrorStats time;
};

// Calibrates per-category costs on a board with `cfg` (Table I/II, Eq. 2).
model::SchemeCalibration calibrate(
    const board::BoardConfig& cfg,
    const model::CategoryScheme& scheme = model::CategoryScheme::paper(),
    model::CalibrationPlan plan = {});

// Runs all jobs on ISS + board, applies the estimator, and computes Eq. 3
// error statistics over the successful kernels.
EvalResult evaluate(const std::vector<model::KernelJob>& jobs,
                    const board::BoardConfig& cfg,
                    const model::CategoryScheme& scheme,
                    const model::CategoryCosts& costs);

// Applies one estimation scheme (nfp/estimator.h) to already-run campaign
// records — so one campaign can be scored under several schemes — and
// computes the same Eq. 3 statistics.
EvalResult evaluate_records(const std::vector<model::KernelRunRecord>& records,
                            const model::Estimator& estimator,
                            const model::CategoryCosts& costs);

// Convenience: mean estimate over kernels (used by the Table IV bench).
model::Estimate mean_estimate(const std::vector<KernelEval>& kernels);

void print_eval_table(const std::string& title, const EvalResult& result);

}  // namespace nfp::benchkit
