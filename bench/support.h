// Shared machinery for the benches: score campaign records under an
// estimation scheme and tabulate estimated vs measured energy/time
// (Eq. 1-3).
// Calibration is model::Calibrator::fit.
#pragma once

#include <string>
#include <vector>

#include "board/config.h"
#include "nfp/calibration.h"
#include "nfp/campaign.h"
#include "nfp/error.h"
#include "nfp/estimator.h"
#include "nfp/report.h"

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

// Applies one estimation scheme (nfp/estimator.h) to already-run campaign
// records — so one campaign can be scored under several schemes — and
// computes Eq. 3 error statistics over the successful kernels.
EvalResult evaluate_records(const std::vector<model::KernelRunRecord>& records,
                            const model::Estimator& estimator,
                            const model::CategoryCosts& costs);

// Convenience: mean estimate over kernels (used by the config-space bench).
model::Estimate mean_estimate(const std::vector<KernelEval>& kernels);

void print_eval_table(const std::string& title, const EvalResult& result);

}  // namespace nfp::benchkit
