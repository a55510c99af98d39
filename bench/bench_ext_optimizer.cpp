// Extension bench: using the NFP model to evaluate a *software* design
// choice — the mcc peephole optimiser — before any hardware exists. The
// estimator prices each removed/folded instruction in nanojoules and
// nanoseconds, which is exactly the developer workflow the paper proposes
// (here applied to compiler flags instead of CPU options).
#include <cstdio>

#include "nfp/calibration.h"
#include "nfp/estimator.h"
#include "nfp/report.h"
#include "rtlib/sources.h"
#include "sim/iss.h"
#include "support.h"
#include "workloads/kernels.h"

namespace nfp::rtlib {
extern const std::string_view kFseSource;
extern const std::string_view kSobelSource;
}  // namespace nfp::rtlib

namespace {

struct Variant {
  std::uint64_t instret = 0;
  nfp::model::Estimate est;
};

Variant run_program(const nfp::asmkit::Program& program,
                    const std::vector<std::uint8_t>& input,
                    const nfp::model::CategoryCosts& costs) {
  nfp::sim::Iss iss;
  iss.load(program);
  if (!input.empty()) {
    iss.bus().write_block(nfp::sim::kInputBase, input.data(), input.size());
  }
  const auto run = iss.run();
  Variant v;
  v.instret = run.instret;
  v.est = nfp::model::eq1_estimator().estimate(
      {.counts = iss.counters().counts}, costs);
  return v;
}

}  // namespace

int main() {
  std::printf("== Extension: pricing the peephole optimiser with the NFP "
              "model ==\n\n");
  nfp::board::BoardConfig cfg;
  const auto calibration =
      nfp::model::Calibrator().fit(nfp::model::eq1_estimator(), cfg);

  // Sobel and FSE targets with one representative input each.
  const auto sobel_image = nfp::workloads::sobel_kernel_image(0);
  std::vector<std::uint8_t> sobel_input;
  sobel_input.reserve(12 + sobel_image.size());
  const auto be32 = [&](std::uint32_t v) {
    sobel_input.push_back(static_cast<std::uint8_t>(v >> 24));
    sobel_input.push_back(static_cast<std::uint8_t>(v >> 16));
    sobel_input.push_back(static_cast<std::uint8_t>(v >> 8));
    sobel_input.push_back(static_cast<std::uint8_t>(v));
  };
  be32(0x534F4231u);
  be32(48);
  be32(48);
  sobel_input.insert(sobel_input.end(), sobel_image.begin(),
                     sobel_image.end());

  const auto fse_data = nfp::workloads::fse_kernel_data(0);
  const auto fse_input =
      nfp::workloads::fse_input_blob(fse_data.signal, fse_data.mask, 24, 0.9);

  nfp::model::TextTable table({"Workload", "insns -O0", "insns peephole",
                               "E saved", "T saved"});
  struct Row {
    const char* name;
    const std::string_view source;
    const std::vector<std::uint8_t>* input;
  };
  // Re-compile the embedded workload sources with/without the optimiser.
  namespace rt = nfp::rtlib;
  const Row rows[] = {
      {"Sobel", rt::kSobelSource, &sobel_input},
      {"FSE (float)", rt::kFseSource, &fse_input},
  };
  for (const Row& row : rows) {
    nfp::mcc::CompileOptions plain;
    nfp::mcc::CompileOptions optimised;
    optimised.peephole = true;
    const auto prog_plain =
        nfp::mcc::Compiler(plain).compile({std::string(row.source)});
    const auto prog_opt =
        nfp::mcc::Compiler(optimised).compile({std::string(row.source)});
    const auto base = run_program(prog_plain, *row.input, calibration.costs);
    const auto opt = run_program(prog_opt, *row.input, calibration.costs);
    table.add_row(
        {row.name, std::to_string(base.instret), std::to_string(opt.instret),
         nfp::model::TextTable::percent(
             (opt.est.energy_nj - base.est.energy_nj) / base.est.energy_nj *
             100.0),
         nfp::model::TextTable::percent(
             (opt.est.time_s - base.est.time_s) / base.est.time_s * 100.0)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(the developer quantifies a compiler change in nJ/ns on the "
              "virtual platform — no board, no power meter)\n");
  return 0;
}
