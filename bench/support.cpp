#include "support.h"

#include <cstdio>

namespace nfp::benchkit {

EvalResult evaluate_records(const std::vector<model::KernelRunRecord>& records,
                            const model::Estimator& estimator,
                            const model::CategoryCosts& costs) {
  EvalResult result;
  std::vector<double> est_e, meas_e, est_t, meas_t;
  for (const auto& rec : records) {
    KernelEval eval;
    eval.name = rec.name;
    eval.ok = rec.ok;
    eval.error = rec.error;
    eval.instret = rec.instret;
    if (rec.ok) {
      eval.estimated = estimator.estimate(model::run_sample(rec), costs);
      eval.measured_energy_nj = rec.measured.energy_nj;
      eval.measured_time_s = rec.measured.time_s;
      est_e.push_back(eval.estimated.energy_nj);
      meas_e.push_back(eval.measured_energy_nj);
      est_t.push_back(eval.estimated.time_s);
      meas_t.push_back(eval.measured_time_s);
    }
    result.kernels.push_back(std::move(eval));
  }
  if (!est_e.empty()) {
    result.energy = model::error_stats(est_e, meas_e);
    result.time = model::error_stats(est_t, meas_t);
  }
  return result;
}

model::Estimate mean_estimate(const std::vector<KernelEval>& kernels) {
  model::Estimate mean;
  std::size_t count = 0;
  for (const auto& k : kernels) {
    if (!k.ok) continue;
    mean.energy_nj += k.estimated.energy_nj;
    mean.time_s += k.estimated.time_s;
    ++count;
  }
  if (count > 0) {
    mean.energy_nj /= static_cast<double>(count);
    mean.time_s /= static_cast<double>(count);
  }
  return mean;
}

void print_eval_table(const std::string& title, const EvalResult& result) {
  std::printf("%s\n", title.c_str());
  model::TextTable t({"Kernel", "E_meas [mJ]", "E_est [mJ]", "eps_E",
                      "T_meas [ms]", "T_est [ms]", "eps_T"});
  for (const auto& k : result.kernels) {
    if (!k.ok) {
      t.add_row({k.name, "FAILED: " + k.error});
      continue;
    }
    const double eps_e =
        (k.estimated.energy_nj - k.measured_energy_nj) / k.measured_energy_nj;
    const double eps_t =
        (k.estimated.time_s - k.measured_time_s) / k.measured_time_s;
    t.add_row({k.name, model::TextTable::fmt(k.measured_energy_nj * 1e-6, 3),
               model::TextTable::fmt(k.estimated.energy_nj * 1e-6, 3),
               model::TextTable::percent(eps_e * 100.0),
               model::TextTable::fmt(k.measured_time_s * 1e3, 3),
               model::TextTable::fmt(k.estimated.time_s * 1e3, 3),
               model::TextTable::percent(eps_t * 100.0)});
  }
  std::printf("%s", t.to_string().c_str());
  if (!result.energy.per_kernel.empty()) {
    std::printf("mean |eps|: energy %.2f%%  time %.2f%%   max |eps|: energy "
                "%.2f%%  time %.2f%%\n\n",
                result.energy.mean_abs_percent(),
                result.time.mean_abs_percent(),
                result.energy.max_abs_percent(),
                result.time.max_abs_percent());
  }
}

}  // namespace nfp::benchkit
