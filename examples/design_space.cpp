// Design-space exploration (paper §VI-D): should my embedded CPU include an
// FPU? Compile the application with the FPU and with -msoft-float, estimate
// both via the NFP model, and weigh the savings against the chip area.
//
// The application is a Gaussian blur with double-precision weights — a
// typical image-processing kernel whose FP share decides the answer.
#include <cstdio>

#include "board/area.h"
#include "mcc/compiler.h"
#include "nfp/calibration.h"
#include "nfp/estimator.h"
#include "sim/iss.h"

namespace {

const char* kBlurSource = R"(
#define W 32
#define H 32
unsigned char image[1024];
unsigned char blurred[1024];
double kernel3[9] = {0.0625, 0.125, 0.0625,
                     0.125,  0.25,  0.125,
                     0.0625, 0.125, 0.0625};

int main() {
  for (int i = 0; i < W * H; i++) image[i] = (unsigned char)((i * 131) % 256);
  for (int y = 1; y < H - 1; y++) {
    for (int x = 1; x < W - 1; x++) {
      double acc = 0.0;
      for (int dy = -1; dy <= 1; dy++) {
        for (int dx = -1; dx <= 1; dx++) {
          acc += kernel3[(dy + 1) * 3 + dx + 1] *
                 (double)image[(y + dy) * W + x + dx];
        }
      }
      blurred[y * W + x] = (unsigned char)(int)(acc + 0.5);
    }
  }
  return blurred[W * 15 + 15];
}
)";

nfp::model::Estimate estimate_abi(nfp::mcc::FloatAbi abi,
                                  const nfp::model::CategoryCosts& costs) {
  nfp::mcc::CompileOptions opts;
  opts.float_abi = abi;
  const auto program = nfp::mcc::Compiler(opts).compile({kBlurSource});
  nfp::sim::Iss iss;
  iss.load(program);
  const auto run = iss.run();
  std::printf("  %-10s %9llu instructions\n",
              abi == nfp::mcc::FloatAbi::kHard ? "float:" : "fixed:",
              static_cast<unsigned long long>(run.instret));
  return nfp::model::eq1_estimator().estimate(
      {.counts = iss.counters().counts}, costs);
}

}  // namespace

int main() {
  std::printf("Design question: does a Gaussian blur justify an FPU?\n\n");

  nfp::board::BoardConfig cfg;
  const auto calibration =
      nfp::model::Calibrator().fit(nfp::model::eq1_estimator(), cfg);

  std::printf("simulating both hardware options:\n");
  const auto with_fpu = estimate_abi(nfp::mcc::FloatAbi::kHard,
                                     calibration.costs);
  const auto without_fpu = estimate_abi(nfp::mcc::FloatAbi::kSoft,
                                        calibration.costs);

  const double e_save = (1.0 - with_fpu.energy_nj / without_fpu.energy_nj) * 100.0;
  const double t_save = (1.0 - with_fpu.time_s / without_fpu.time_s) * 100.0;

  nfp::board::AreaModel area;
  nfp::board::BoardConfig no_fpu_cfg = cfg;
  no_fpu_cfg.has_fpu = false;
  const auto les_with = area.synthesize(cfg).total();
  const auto les_without = area.synthesize(no_fpu_cfg).total();

  std::printf("\nwith FPU:    %8.3f ms  %8.1f uJ  %u logical elements\n",
              with_fpu.time_s * 1e3, with_fpu.energy_nj * 1e-3, les_with);
  std::printf("without FPU: %8.3f ms  %8.1f uJ  %u logical elements\n",
              without_fpu.time_s * 1e3, without_fpu.energy_nj * 1e-3,
              les_without);
  std::printf("\nFPU saves %.1f%% energy and %.1f%% time for +%.0f%% area.\n",
              e_save, t_save,
              (les_with - les_without) * 100.0 / les_without);
  if (e_save > 60.0) {
    std::printf("=> recommendation: include the FPU (large FP share).\n");
  } else if (e_save > 25.0) {
    std::printf("=> recommendation: depends on the energy/area budget.\n");
  } else {
    std::printf("=> recommendation: skip the FPU, spend the area "
                "elsewhere.\n");
  }
  return 0;
}
