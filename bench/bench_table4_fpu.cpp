// Reproduces Table IV: change of non-functional properties when introducing
// an FPU — per workload, the mean change in (estimated) energy and time of
// the float build relative to the fixed (-msoft-float) build, plus the chip
// area cost from the synthesis model.
#include <cstdio>
#include <cstring>

#include "board/area.h"
#include "nfp/dse.h"
#include "support.h"
#include "workloads/kernels.h"

namespace {

std::vector<nfp::model::Estimate> estimates_of(
    const std::vector<nfp::benchkit::KernelEval>& kernels) {
  std::vector<nfp::model::Estimate> out;
  for (const auto& k : kernels) {
    if (k.ok) out.push_back(k.estimated);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  nfp::board::BoardConfig cfg;
  const auto& eq1 = nfp::model::eq1_estimator();
  std::printf("== Table IV: effect of introducing an FPU ==\n");
  const auto calibration = nfp::model::Calibrator().fit(eq1, cfg);

  nfp::workloads::MvcKernelParams mvc;
  nfp::workloads::FseKernelParams fse;
  if (quick) {
    mvc.qps = {32};
    fse.count = 6;
  }

  // Estimates for both ABIs of both workloads (the paper's "simulate the
  // execution of his code with and without an FPU").
  auto eval_of = [&](const std::vector<nfp::model::KernelJob>& jobs) {
    return nfp::benchkit::evaluate(jobs, cfg, eq1, calibration.costs);
  };
  const auto fse_float =
      eval_of(nfp::workloads::make_fse_jobs(nfp::mcc::FloatAbi::kHard, fse));
  const auto fse_fixed =
      eval_of(nfp::workloads::make_fse_jobs(nfp::mcc::FloatAbi::kSoft, fse));
  const auto mvc_float =
      eval_of(nfp::workloads::make_mvc_jobs(nfp::mcc::FloatAbi::kHard, mvc));
  const auto mvc_fixed =
      eval_of(nfp::workloads::make_mvc_jobs(nfp::mcc::FloatAbi::kSoft, mvc));

  const auto fse_impact = nfp::model::fpu_impact(
      "FSE", estimates_of(fse_float.kernels), estimates_of(fse_fixed.kernels));
  const auto mvc_impact = nfp::model::fpu_impact(
      "HEVC Decoding", estimates_of(mvc_float.kernels),
      estimates_of(mvc_fixed.kernels));

  nfp::model::TextTable table({"", "FSE", "HEVC Decoding", "paper FSE",
                               "paper HEVC"});
  table.add_row({"Energy consumption",
                 nfp::model::TextTable::percent(fse_impact.energy_change_percent, 1),
                 nfp::model::TextTable::percent(mvc_impact.energy_change_percent, 1),
                 "-92.6%", "-42.88%"});
  table.add_row({"Processing Time",
                 nfp::model::TextTable::percent(fse_impact.time_change_percent, 1),
                 nfp::model::TextTable::percent(mvc_impact.time_change_percent, 1),
                 "-92.8%", "-43.49%"});
  table.add_row({"# logical elements",
                 nfp::model::TextTable::percent(fse_impact.area_change_percent, 0),
                 nfp::model::TextTable::percent(mvc_impact.area_change_percent, 0),
                 "+109%", "+109%"});
  std::printf("%s\n", table.to_string().c_str());

  const nfp::board::AreaModel area;
  nfp::board::BoardConfig with_fpu = cfg;
  nfp::board::BoardConfig without_fpu = cfg;
  without_fpu.has_fpu = false;
  const auto a1 = area.synthesize(with_fpu);
  const auto a0 = area.synthesize(without_fpu);
  std::printf("synthesis: %u LEs without FPU, %u LEs with FPU\n", a0.total(),
              a1.total());
  return 0;
}
