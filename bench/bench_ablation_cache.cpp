// Ablation: the paper's future-work item — caches. Enabling the board's
// data cache under a cacheless-calibrated model produces wildly wrong
// estimates (the constant-cost-per-load assumption prices every load as an
// SDRAM access). Recalibrating on the cached board restores accuracy *for
// these workloads* because, as the paper notes, its algorithms have "a very
// high locality such that cache misses play a minor role" — their hit rates
// match the calibration kernels'. Workloads with workload-dependent miss
// rates would need the cache-aware model of the paper's future work.
#include <cstdio>

#include "support.h"
#include "workloads/kernels.h"

int main() {
  std::printf("== Ablation: cache model (paper future work) ==\n\n");

  nfp::workloads::MvcKernelParams mvc;
  mvc.qps = {32};
  nfp::workloads::FseKernelParams fse;
  fse.count = 6;
  std::vector<nfp::model::KernelJob> jobs;
  for (const auto abi : {nfp::mcc::FloatAbi::kHard, nfp::mcc::FloatAbi::kSoft}) {
    for (auto& j : nfp::workloads::make_mvc_jobs(abi, mvc)) jobs.push_back(std::move(j));
    for (auto& j : nfp::workloads::make_fse_jobs(abi, fse)) jobs.push_back(std::move(j));
  }

  nfp::board::BoardConfig plain;
  nfp::board::BoardConfig cached;
  cached.enable_cache = true;

  const auto& eq1 = nfp::model::eq1_estimator();
  const auto cal_plain = nfp::model::Calibrator().fit(eq1, plain);
  const auto cal_cached = nfp::model::Calibrator().fit(eq1, cached);

  struct Row {
    const char* name;
    const nfp::board::BoardConfig* board;
    const nfp::model::CategoryCosts* costs;
  };
  const Row rows[] = {
      {"cacheless board, cacheless calibration (paper setup)", &plain,
       &cal_plain.costs},
      {"cached board, cacheless calibration", &cached, &cal_plain.costs},
      {"cached board, cached calibration", &cached, &cal_cached.costs},
  };

  nfp::model::TextTable table({"Configuration", "mean |eps_E|", "max |eps_E|",
                               "mean |eps_T|", "max |eps_T|"});
  for (const auto& row : rows) {
    const auto result = nfp::benchkit::evaluate_records(
        nfp::model::Campaign(*row.board).run(jobs), eq1, *row.costs);
    table.add_row(
        {row.name,
         nfp::model::TextTable::fmt(result.energy.mean_abs_percent()) + "%",
         nfp::model::TextTable::fmt(result.energy.max_abs_percent()) + "%",
         nfp::model::TextTable::fmt(result.time.mean_abs_percent()) + "%",
         nfp::model::TextTable::fmt(result.time.max_abs_percent()) + "%"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(expected: the mismatched configuration is off by >100%%; "
              "recalibration recovers accuracy only because these workloads "
              "share the calibration kernels' high hit rate — the locality "
              "property the paper selected its algorithms for)\n");
  return 0;
}
