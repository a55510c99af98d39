// Reproduces Table III: mean and maximum absolute estimation error over the
// full kernel set — 36 HEVC(MVC) bitstreams + 24 FSE kernels, each in the
// float (FPU) and fixed (-msoft-float) variants, i.e. 120 kernels.
#include <cstdio>
#include <cstring>

#include "support.h"
#include "workloads/kernels.h"

int main(int argc, char** argv) {
  bool quick = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--verbose") == 0) verbose = true;
  }

  nfp::board::BoardConfig cfg;
  const auto& eq1 = nfp::model::eq1_estimator();
  std::printf("== Table III: estimation error over the full kernel set ==\n");
  std::printf("calibrating the nine-category model (Table II kernels)...\n");
  const auto calibration = nfp::model::Calibrator().fit(eq1, cfg);

  nfp::workloads::MvcKernelParams mvc;
  nfp::workloads::FseKernelParams fse;
  if (quick) {
    mvc.qps = {32};
    mvc.frames = 3;
    fse.count = 6;
    fse.iterations = 24;
  }

  std::vector<nfp::model::KernelJob> jobs;
  for (const auto abi : {nfp::mcc::FloatAbi::kHard, nfp::mcc::FloatAbi::kSoft}) {
    for (auto& job : nfp::workloads::make_mvc_jobs(abi, mvc)) {
      jobs.push_back(std::move(job));
    }
    for (auto& job : nfp::workloads::make_fse_jobs(abi, fse)) {
      jobs.push_back(std::move(job));
    }
  }
  std::printf("running %zu kernels on the board...\n\n", jobs.size());

  const auto result =
      nfp::benchkit::evaluate(jobs, cfg, eq1, calibration.costs);
  if (verbose) {
    nfp::benchkit::print_eval_table("per-kernel results:", result);
  }
  for (const auto& k : result.kernels) {
    if (!k.ok) std::printf("FAILED kernel %s: %s\n", k.name.c_str(),
                           k.error.c_str());
  }

  nfp::model::TextTable table({"", "Energy", "Time"});
  table.add_row({"Mean absolute error",
                 nfp::model::TextTable::fmt(result.energy.mean_abs_percent()) + "%",
                 nfp::model::TextTable::fmt(result.time.mean_abs_percent()) + "%"});
  table.add_row({"Maximum absolute error",
                 nfp::model::TextTable::fmt(result.energy.max_abs_percent()) + "%",
                 nfp::model::TextTable::fmt(result.time.max_abs_percent()) + "%"});
  table.add_row({"paper: mean absolute error", "2.68%", "2.72%"});
  table.add_row({"paper: maximum absolute error", "6.32%", "6.95%"});
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
