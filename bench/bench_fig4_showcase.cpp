// Reproduces Fig. 4: measured vs estimated energy and time for four
// representative kernels — FSE and HEVC decoding, each as float (FPU) and
// fixed (-msoft-float). Printed as the bar-chart's data series.
#include <cstdio>

#include "support.h"
#include "workloads/kernels.h"

int main() {
  nfp::board::BoardConfig cfg;
  const auto& eq1 = nfp::model::eq1_estimator();
  std::printf("== Fig. 4: measured vs estimated energy/time, 4 showcase "
              "kernels ==\n");
  const auto calibration = nfp::model::Calibrator().fit(eq1, cfg);

  // The two FSE kernels process the same input (image 0); the two HEVC
  // kernels decode the same bitstream (lowdelay, QP 32, sequence 0).
  nfp::workloads::FseKernelParams fse;
  fse.count = 1;
  nfp::workloads::MvcKernelParams mvc;
  mvc.qps = {32};

  std::vector<nfp::model::KernelJob> jobs;
  for (const auto abi : {nfp::mcc::FloatAbi::kHard, nfp::mcc::FloatAbi::kSoft}) {
    jobs.push_back(nfp::workloads::make_fse_jobs(abi, fse)[0]);
    // lowdelay qp32 seq0 is job index 3 (configs ordered intra, lowdelay,
    // lowdelay_P, randomaccess; one qp, three sequences).
    jobs.push_back(nfp::workloads::make_mvc_jobs(abi, mvc)[3]);
  }

  const auto result =
      nfp::benchkit::evaluate(jobs, cfg, eq1, calibration.costs);

  nfp::model::TextTable table({"Kernel", "E measured [mJ]", "E estimated [mJ]",
                               "T measured [ms]", "T estimated [ms]"});
  for (const auto& k : result.kernels) {
    if (!k.ok) {
      std::printf("FAILED %s: %s\n", k.name.c_str(), k.error.c_str());
      continue;
    }
    table.add_row({k.name,
                   nfp::model::TextTable::fmt(k.measured_energy_nj * 1e-6, 3),
                   nfp::model::TextTable::fmt(k.estimated.energy_nj * 1e-6, 3),
                   nfp::model::TextTable::fmt(k.measured_time_s * 1e3, 3),
                   nfp::model::TextTable::fmt(k.estimated.time_s * 1e3, 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(paper shape: all estimated bars within a few percent of "
              "the measured bars; fixed >> float for FSE, moderately larger "
              "for HEVC)\n");
  std::printf("mean |eps|: energy %.2f%%, time %.2f%%\n",
              result.energy.mean_abs_percent(),
              result.time.mean_abs_percent());
  return 0;
}
