// Reproduces Table I: instruction categories and their specific times and
// energies, derived with the Table II reference/test kernel methodology
// (Eq. 2) on the measurement board.
#include <cstdio>
#include <cstring>

#include "support.h"

namespace {

struct PaperRow {
  const char* category;
  double time_ns;
  double energy_nj;
};

// Table I of the paper (FPGA LEON3 measurements).
constexpr PaperRow kPaper[] = {
    {"Integer Arithmetic", 45, 15}, {"Jump", 238, 76},
    {"Memory Load", 700, 229},      {"Memory Store", 376, 166},
    {"NOP", 46, 13},                {"Other", 41, 13},
    {"FPU Arithmetic", 46, 14},     {"FPU Divide", 431, 431},
    {"FPU Square root", 612, 88},
};

}  // namespace

int main(int argc, char** argv) {
  const bool verbose = argc > 1 && std::strcmp(argv[1], "--verbose") == 0;

  nfp::board::BoardConfig cfg;  // realistic board: variation + meter noise
  const auto result =
      nfp::model::Calibrator().fit(nfp::model::eq1_estimator(), cfg);

  std::printf("== Table I: instruction categories, specific times and "
              "energies ==\n");
  std::printf("(calibrated on the simulated board via Eq. 2; paper values "
              "from the authors' FPGA alongside)\n\n");

  nfp::model::TextTable table(
      {"Instruction category", "t_c [ns]", "e_c [nJ]", "paper t_c [ns]",
       "paper e_c [nJ]"});
  const auto& scheme = nfp::model::CategoryScheme::paper();
  for (std::size_t c = 0; c < scheme.size(); ++c) {
    table.add_row({scheme.category_name(c),
                   nfp::model::TextTable::fmt(result.costs.time_ns[c], 1),
                   nfp::model::TextTable::fmt(result.costs.energy_nj[c], 1),
                   nfp::model::TextTable::fmt(kPaper[c].time_ns, 0),
                   nfp::model::TextTable::fmt(kPaper[c].energy_nj, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());

  if (verbose) {
    std::printf("raw Table-II kernel readings:\n");
    nfp::model::TextTable raw({"Category", "E_ref [uJ]", "E_test [uJ]",
                               "T_ref [ms]", "T_test [ms]"});
    for (const auto& d : result.details) {
      raw.add_row({d.category,
                   nfp::model::TextTable::fmt(d.e_ref_nj * 1e-3, 1),
                   nfp::model::TextTable::fmt(d.e_test_nj * 1e-3, 1),
                   nfp::model::TextTable::fmt(d.t_ref_s * 1e3, 2),
                   nfp::model::TextTable::fmt(d.t_test_s * 1e3, 2)});
    }
    std::printf("%s\n", raw.to_string().c_str());
  }

  // Shape checks mirrored from the paper (reported, not asserted).
  const auto& t = result.costs.time_ns;
  std::printf("shape: load(%.0fns) > store(%.0fns) > jump(%.0fns) > "
              "int(%.0fns); fdiv %.0fns, fsqrt %.0fns >> fpu-arith %.0fns\n",
              t[2], t[3], t[1], t[0], t[7], t[8], t[6]);
  return 0;
}
