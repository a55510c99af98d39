// Ablation: sensitivity of the Table III errors to the board's
// context-dependent energy variation and the power-meter noise — i.e.,
// which physical mechanism produces the paper's 2-3% error floor.
#include <cstdio>

#include "support.h"
#include "workloads/kernels.h"

int main() {
  std::printf("== Ablation: data-dependence and meter-noise sensitivity ==\n\n");

  nfp::workloads::MvcKernelParams mvc;
  mvc.qps = {32};
  nfp::workloads::FseKernelParams fse;
  fse.count = 6;
  std::vector<nfp::model::KernelJob> jobs;
  for (const auto abi : {nfp::mcc::FloatAbi::kHard, nfp::mcc::FloatAbi::kSoft}) {
    for (auto& j : nfp::workloads::make_mvc_jobs(abi, mvc)) jobs.push_back(std::move(j));
    for (auto& j : nfp::workloads::make_fse_jobs(abi, fse)) jobs.push_back(std::move(j));
  }

  struct Point {
    const char* name;
    double amplitude;
    bool meter_noise;
    double sigma;
  };
  const Point points[] = {
      {"no data dependence, ideal meter", 0.0, false, 0.0},
      {"no data dependence, noisy meter", 0.0, true, 0.004},
      {"mild data dependence (amp 0.15)", 0.15, true, 0.004},
      {"default board (amp 0.30)", 0.30, true, 0.004},
      {"strong data dependence (amp 0.45)", 0.45, true, 0.004},
      {"default hardware, bad meter (sigma 1%)", 0.30, true, 0.01},
  };

  const auto& eq1 = nfp::model::eq1_estimator();
  nfp::model::TextTable table({"Board configuration", "mean |eps_E|",
                               "max |eps_E|", "mean |eps_T|", "max |eps_T|"});
  for (const auto& point : points) {
    nfp::board::BoardConfig cfg;
    cfg.data_energy_amplitude = point.amplitude;
    cfg.enable_variation = true;
    cfg.enable_meter_noise = point.meter_noise;
    cfg.meter_noise_sigma = point.sigma;
    const auto calibration = nfp::model::Calibrator().fit(eq1, cfg);
    const auto result = nfp::benchkit::evaluate_records(
        nfp::model::Campaign(cfg).run(jobs), eq1, calibration.costs);
    table.add_row(
        {point.name,
         nfp::model::TextTable::fmt(result.energy.mean_abs_percent()) + "%",
         nfp::model::TextTable::fmt(result.energy.max_abs_percent()) + "%",
         nfp::model::TextTable::fmt(result.time.mean_abs_percent()) + "%",
         nfp::model::TextTable::fmt(result.time.max_abs_percent()) + "%"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(toggle amplitude and meter noise move only the energy "
              "columns; the time columns stay flat, and the ideal board "
              "keeps a nonzero error floor in both)\n");
  return 0;
}
