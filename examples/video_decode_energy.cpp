// Scenario from the paper's introduction: a battery-constrained device
// decoding video. How much decode energy does each quality setting (QP)
// cost? Estimated entirely on the virtual platform — no hardware, no power
// meter.
#include <cstdio>

#include "codecs/sequence_gen.h"
#include "nfp/calibration.h"
#include "nfp/estimator.h"
#include "nfp/report.h"
#include "sim/iss.h"
#include "sim/memmap.h"
#include "workloads/kernels.h"

int main() {
  std::printf("Video decode energy vs quality (48x48, 5 frames, lowdelay)\n\n");

  nfp::board::BoardConfig cfg;
  const auto& eq1 = nfp::model::eq1_estimator();
  const auto calibration = nfp::model::Calibrator().fit(eq1, cfg);
  const auto& program = nfp::workloads::mvc_program(nfp::mcc::FloatAbi::kHard);

  const auto frames = nfp::codec::make_sequence(
      48, 48, 5, nfp::codec::SequenceKind::kPanningTexture, 2026);

  nfp::model::TextTable table({"QP", "bitstream [bytes]", "PSNR [dB]",
                               "decode time [ms]", "decode energy [mJ]"});
  for (const int qp : {10, 20, 32, 45}) {
    const auto enc =
        nfp::codec::encode(frames, 48, 48, qp, nfp::codec::Config::kLowdelay);
    const auto golden = nfp::codec::golden_decode(enc.stream);
    double quality = 0.0;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      quality += nfp::codec::psnr(frames[f], golden.frames[f]);
    }
    quality /= static_cast<double>(frames.size());

    nfp::sim::Iss iss;
    iss.load(program);
    const auto blob = enc.stream.to_input_blob();
    iss.bus().write_block(nfp::sim::kInputBase, blob.data(), blob.size());
    const auto run = iss.run();
    if (!run.halted || run.exit_code != 0) {
      std::printf("decode failed at qp %d\n", qp);
      return 1;
    }
    const auto est =
        eq1.estimate({.counts = iss.counters().counts}, calibration.costs);
    table.add_row({std::to_string(qp),
                   std::to_string(enc.stream.payload.size()),
                   nfp::model::TextTable::fmt(quality, 1),
                   nfp::model::TextTable::fmt(est.time_s * 1e3, 2),
                   nfp::model::TextTable::fmt(est.energy_nj * 1e-6, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(the developer reads off the quality/energy trade-off "
              "before any hardware exists)\n");
  return 0;
}
