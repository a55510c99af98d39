// Error concealment demo: lose a block of an image, reconstruct it with
// Frequency Selective Extrapolation on the simulated target, and report
// both the reconstruction quality and what the reconstruction costs in
// time and energy on the embedded CPU.
#include <cstdio>

#include "fse/fse_ref.h"
#include "fse/image_gen.h"
#include "nfp/calibration.h"
#include "nfp/estimator.h"
#include "sim/iss.h"
#include "sim/memmap.h"
#include "workloads/kernels.h"

namespace {

void render(const std::vector<double>& img, const std::vector<int>* mask) {
  static const char* kShades = " .:-=+*#%@";
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * 16 + x;
      if (mask != nullptr && (*mask)[i]) {
        std::printf("??");
        continue;
      }
      int level = static_cast<int>(img[i] / 25.6);
      if (level < 0) level = 0;
      if (level > 9) level = 9;
      std::printf("%c%c", kShades[level], kShades[level]);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  const auto original = nfp::fse::make_image(16, 7);
  const auto mask = nfp::fse::make_mask(16, 7, nfp::fse::MaskKind::kBlock);
  auto distorted = original;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) distorted[i] = 0.0;
  }

  std::printf("received image (?? = lost samples):\n");
  render(distorted, &mask);

  // Run the Micro-C FSE on the simulated target CPU (with FPU).
  nfp::sim::Iss iss;
  iss.load(nfp::workloads::fse_program(nfp::mcc::FloatAbi::kHard));
  const auto blob = nfp::workloads::fse_input_blob(distorted, mask, 48, 0.9);
  iss.bus().write_block(nfp::sim::kInputBase, blob.data(), blob.size());
  const auto run = iss.run();
  if (!run.halted || run.exit_code != 0) {
    std::printf("FSE kernel failed (exit %u)\n", run.exit_code);
    return 1;
  }
  std::vector<double> restored(256);
  for (int i = 0; i < 256; ++i) {
    restored[i] = iss.bus().read_f64(nfp::sim::kOutputBase + 8 * i);
  }

  std::printf("\nreconstruction (FSE, 48 iterations, on the simulated "
              "target):\n");
  render(restored, nullptr);

  std::printf("\nmasked-region PSNR: %.1f dB (zero-fill: %.1f dB)\n",
              nfp::fse::masked_psnr(original, restored, mask),
              nfp::fse::masked_psnr(original, distorted, mask));

  // What does this reconstruction cost on the device?
  nfp::board::BoardConfig cfg;
  const auto& eq1 = nfp::model::eq1_estimator();
  const auto calibration = nfp::model::Calibrator().fit(eq1, cfg);
  const auto est =
      eq1.estimate({.counts = iss.counters().counts}, calibration.costs);
  std::printf("estimated cost on target: %.2f ms, %.2f mJ (%llu "
              "instructions)\n",
              est.time_s * 1e3, est.energy_nj * 1e-6,
              static_cast<unsigned long long>(run.instret));
  return 0;
}
