// Quickstart: estimate the processing time and energy of a program without
// measuring it — the paper's core workflow in ~60 lines.
//
//  1. Write the embedded application (Micro-C).
//  2. Calibrate the per-category costs once on the (simulated) board.
//  3. Run the application on the instruction-accurate simulator and apply
//     Eq. 1 to its instruction counts.
//  4. Compare with a real "bench measurement" to see the accuracy.
#include <cstdio>

#include "board/board.h"
#include "mcc/compiler.h"
#include "nfp/calibration.h"
#include "nfp/estimator.h"
#include "sim/iss.h"

int main() {
  // 1. The application: a 16-tap FIR filter over a sample buffer.
  const char* source = R"(
int samples[256];
int coeff[16] = {1, 2, 4, 6, 9, 12, 14, 15, 15, 14, 12, 9, 6, 4, 2, 1};
int output[256];

int main() {
  for (int i = 0; i < 256; i++) samples[i] = (i * 37 + 11) % 255;
  for (int i = 0; i < 240; i++) {
    int acc = 0;
    for (int t = 0; t < 16; t++) acc += samples[i + t] * coeff[t];
    output[i] = acc >> 7;
  }
  return output[100];
}
)";
  const auto program = nfp::mcc::Compiler().compile({source});

  // 2. Calibrate the nine-category model (Table I / Eq. 2).
  nfp::board::BoardConfig board_cfg;
  const auto& eq1 = nfp::model::eq1_estimator();
  const auto calibration = nfp::model::Calibrator().fit(eq1, board_cfg);
  std::printf("calibrated %zu categories (e.g. Memory Load: %.0f ns, "
              "%.0f nJ per instruction)\n",
              calibration.costs.size(), calibration.costs.time_ns[2],
              calibration.costs.energy_nj[2]);

  // 3. Instruction-accurate simulation + Eq. 1.
  nfp::sim::Iss iss;
  iss.load(program);
  const auto run = iss.run();
  std::printf("ISS: program halted with exit code %u after %llu "
              "instructions\n",
              run.exit_code, static_cast<unsigned long long>(run.instret));

  const auto estimate =
      eq1.estimate({.counts = iss.counters().counts}, calibration.costs);
  std::printf("estimated:  %.3f ms, %.3f uJ\n", estimate.time_s * 1e3,
              estimate.energy_nj * 1e-3);

  // 4. Ground truth from the measurement board.
  nfp::board::Board board(board_cfg);
  board.load(program);
  board.run();
  const auto measured = board.measure("quickstart-fir");
  std::printf("measured:   %.3f ms, %.3f uJ\n", measured.time_s * 1e3,
              measured.energy_nj * 1e-3);
  std::printf("error:      time %+.2f%%, energy %+.2f%%\n",
              (estimate.time_s - measured.time_s) / measured.time_s * 100.0,
              (estimate.energy_nj - measured.energy_nj) /
                  measured.energy_nj * 100.0);
  return 0;
}
