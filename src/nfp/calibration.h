// Calibration of instruction-specific energies and times (paper §V).
//
// For every category of a scheme, two kernels are generated following
// Table II: a *reference* kernel (an empty counted loop) and a *test*
// kernel (the same loop containing `per_loop` instances of instructions
// from the category). All kernels of a calibration run as one measurement
// campaign (nfp/campaign.h), each read under the meter tag
// "cal/<category>/ref|test"; Eq. 2
//
//   e_c = (E_test − E_ref) / n_test     t_c = (T_test − T_ref) / n_test
//
// yields the per-instruction costs, with n_test = loops · per_loop.
#pragma once

#include <string>
#include <vector>

#include "board/config.h"
#include "nfp/estimator.h"

namespace nfp::model {

struct CalibrationPlan {
  std::uint32_t loops = 200'000;  // loop iterations per kernel
  std::uint32_t per_loop = 32;    // tested instructions per iteration
};

// Generated source pair for one category.
struct KernelPair {
  std::string category;
  std::string ref_asm;
  std::string test_asm;
  std::uint64_t n_test = 0;
};

// Per-category calibration record (the raw bench readings behind Table I).
struct CategoryCalibration {
  std::string category;
  double e_test_nj = 0, e_ref_nj = 0;
  double t_test_s = 0, t_ref_s = 0;
  double specific_energy_nj = 0;  // e_c
  double specific_time_ns = 0;    // t_c
};

// Calibrated coefficient vector for one estimation scheme (nfp/estimator.h).
// For eq1 it is Eq. 2, one term per category of the estimator's scheme,
// details included; other schemes carry a least-squares fit over the same
// kind of Table-II calibration runs.
struct SchemeCalibration {
  std::string scheme;
  CategoryCosts costs;                  // one coefficient per model term
  std::vector<std::string> term_names;  // parallel to costs
  // Table-II ref/test pairs behind the coefficients: one difference sample
  // per pair the board could run.
  std::size_t samples = 0;
  // Raw per-category bench readings (eq1 only; empty for fitted schemes).
  std::vector<CategoryCalibration> details;
};

class Calibrator {
 public:
  // Throws std::invalid_argument when plan.loops or plan.per_loop is 0.
  explicit Calibrator(CalibrationPlan plan = {});

  // Generates the Table-II kernel pair for one category, by name (any
  // category of the shipped schemes). Throws std::invalid_argument for a
  // category without a calibration recipe.
  KernelPair make_kernels(const std::string& category) const;

  // Calibrates an estimator's coefficient vector on a board with the given
  // configuration. An Eq1Estimator gets Eq. 2 over its scheme's categories;
  // categories the board cannot execute (FPU without an FPU, mul/div
  // without the hardware unit) are skipped and cost zero. Every other
  // scheme is fitted by ridge-regularized least squares over the Table-II
  // pairs of the paper's categories plus two targeted excitation pairs,
  // with the feature vectors the scheme extracts from each board run
  // (per-op counts, PMU events, bench time).
  SchemeCalibration fit(const Estimator& estimator,
                        const board::BoardConfig& cfg) const;

 private:
  CalibrationPlan plan_;
};

}  // namespace nfp::model
