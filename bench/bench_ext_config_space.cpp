// Extension bench: full processor-configuration exploration. The paper's
// abstract promises help with "the optimal processor hardware configuration
// for a given algorithm"; Table IV explores one axis (the FPU). This bench
// spans the 2x2 LEON3 option space {FPU, hardware MUL/DIV} for all three
// workloads, entirely from NFP-model estimates (no board measurements).
#include <cstdio>

#include "board/area.h"
#include "support.h"
#include "workloads/kernels.h"

namespace {

struct CpuConfig {
  const char* name;
  bool fpu;
  bool muldiv;
};

// Estimated mean energy/time per workload on a given CPU configuration.
struct WorkloadCost {
  double energy_nj = 0.0;
  double time_s = 0.0;
};

}  // namespace

int main() {
  std::printf("== Extension: processor configuration space (FPU x MUL/DIV) "
              "==\n\n");

  const CpuConfig configs[] = {
      {"minimal IU", false, false},
      {"IU + MUL/DIV", false, true},
      {"IU + FPU", true, false},
      {"IU + MUL/DIV + FPU", true, true},
  };
  const auto& eq1 = nfp::model::eq1_estimator();
  const nfp::board::AreaModel area;

  // Small, representative kernel subsets (the minimal-IU FSE kernels run
  // soft-float on a soft multiplier — enormous instruction counts).
  nfp::workloads::MvcKernelParams mvc;
  mvc.qps = {32};
  mvc.frames = 3;
  nfp::workloads::FseKernelParams fse;
  fse.count = 2;
  fse.iterations = 16;
  nfp::workloads::SobelKernelParams sobel;
  sobel.count = 2;

  nfp::model::TextTable table({"CPU configuration", "LEs", "HEVC E [mJ]",
                               "HEVC T [ms]", "FSE E [mJ]", "FSE T [ms]",
                               "Sobel E [mJ]", "Sobel T [ms]"});

  for (const auto& config : configs) {
    nfp::board::BoardConfig cfg;
    cfg.has_fpu = config.fpu;
    cfg.has_hw_muldiv = config.muldiv;
    const auto calibration = nfp::model::Calibrator().fit(eq1, cfg);

    const auto float_abi = config.fpu ? nfp::mcc::FloatAbi::kHard
                                      : nfp::mcc::FloatAbi::kSoft;
    const auto muldiv_abi = config.muldiv ? nfp::mcc::MulDivAbi::kHard
                                          : nfp::mcc::MulDivAbi::kSoft;

    const auto cost_of = [&](const std::vector<nfp::model::KernelJob>& jobs) {
      const auto result = nfp::benchkit::evaluate_records(
          nfp::model::Campaign(cfg).run(jobs), eq1, calibration.costs);
      for (const auto& k : result.kernels) {
        if (!k.ok) {
          std::fprintf(stderr, "kernel %s failed: %s\n", k.name.c_str(),
                       k.error.c_str());
        }
      }
      const auto mean = nfp::benchkit::mean_estimate(result.kernels);
      return WorkloadCost{mean.energy_nj, mean.time_s};
    };

    const auto hevc = cost_of(
        nfp::workloads::make_mvc_jobs(float_abi, mvc, muldiv_abi));
    const auto fse_cost = cost_of(
        nfp::workloads::make_fse_jobs(float_abi, fse, muldiv_abi));
    const auto sobel_cost = cost_of(
        nfp::workloads::make_sobel_jobs(float_abi, sobel, muldiv_abi));

    table.add_row({config.name,
                   std::to_string(area.synthesize(cfg).total()),
                   nfp::model::TextTable::fmt(hevc.energy_nj * 1e-6, 1),
                   nfp::model::TextTable::fmt(hevc.time_s * 1e3, 1),
                   nfp::model::TextTable::fmt(fse_cost.energy_nj * 1e-6, 1),
                   nfp::model::TextTable::fmt(fse_cost.time_s * 1e3, 1),
                   nfp::model::TextTable::fmt(sobel_cost.energy_nj * 1e-6, 1),
                   nfp::model::TextTable::fmt(sobel_cost.time_s * 1e3, 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\n(reading: FSE wants the FPU, HEVC wants MUL/DIV and mildly "
      "benefits from the FPU, Sobel only needs MUL/DIV — per-algorithm "
      "optimal configurations differ, which is the tool's purpose)\n");
  return 0;
}
