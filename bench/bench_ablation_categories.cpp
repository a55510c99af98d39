// Ablation: category granularity vs estimation accuracy. Quantifies the
// cost of the paper's nine-category lumping (e.g. umul/udiv folded into
// "Integer Arithmetic") by scoring one campaign under a coarser (6) and a
// finer (13) scheme as well: the counts do not depend on the scheme, only
// the calibration and the aggregation do.
#include <cstdio>

#include "support.h"
#include "workloads/kernels.h"

int main() {
  std::printf("== Ablation: category scheme granularity ==\n\n");
  nfp::board::BoardConfig cfg;

  nfp::workloads::MvcKernelParams mvc;
  mvc.qps = {32};
  nfp::workloads::FseKernelParams fse;
  fse.count = 8;

  std::vector<nfp::model::KernelJob> jobs;
  for (const auto abi : {nfp::mcc::FloatAbi::kHard, nfp::mcc::FloatAbi::kSoft}) {
    for (auto& j : nfp::workloads::make_mvc_jobs(abi, mvc)) jobs.push_back(std::move(j));
    for (auto& j : nfp::workloads::make_fse_jobs(abi, fse)) jobs.push_back(std::move(j));
  }
  std::printf("kernel set: %zu kernels\n\n", jobs.size());
  const auto records = nfp::model::Campaign(cfg).run(jobs);

  nfp::model::TextTable table({"Scheme", "categories", "mean |eps_E|",
                               "max |eps_E|", "mean |eps_T|", "max |eps_T|"});
  for (const auto* scheme :
       {&nfp::model::CategoryScheme::coarse(),
        &nfp::model::CategoryScheme::paper(),
        &nfp::model::CategoryScheme::fine()}) {
    const nfp::model::Eq1Estimator eq1(*scheme);
    const auto calibration = nfp::model::Calibrator().fit(eq1, cfg);
    const auto result =
        nfp::benchkit::evaluate_records(records, eq1, calibration.costs);
    table.add_row(
        {scheme->name(), std::to_string(scheme->size()),
         nfp::model::TextTable::fmt(result.energy.mean_abs_percent()) + "%",
         nfp::model::TextTable::fmt(result.energy.max_abs_percent()) + "%",
         nfp::model::TextTable::fmt(result.time.mean_abs_percent()) + "%",
         nfp::model::TextTable::fmt(result.time.max_abs_percent()) + "%"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(expected: finer categories reduce lumping error; the "
              "paper's 9 categories sit near the knee)\n");
  return 0;
}
