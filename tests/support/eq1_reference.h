// Straight-line reference for the paper's Eq. 1, kept apart from the
// estimator it checks: Σ_c e_c · n_c over the categories in ascending
// order, energy and time summed separately, the time sum in ns scaled to
// seconds once at the end. Estimator::estimate for an Eq1Estimator must
// match it bit for bit.
//
// run_with_category_counts builds a run with given category counts, so
// tests can state Eq. 1 inputs per category.
#pragma once

#include <cstddef>

#include "nfp/estimator.h"
#include "nfp/scheme.h"

namespace nfp::test {

inline model::Estimate eq1_reference(const model::CategoryCounts& n,
                                     const model::CategoryCosts& costs) {
  model::Estimate e;
  double time_ns = 0.0;
  for (std::size_t c = 0; c < n.size(); ++c) {
    e.energy_nj += costs.energy_nj[c] * static_cast<double>(n[c]);
    time_ns += costs.time_ns[c] * static_cast<double>(n[c]);
  }
  e.time_s = time_ns * 1e-9;
  return e;
}

// A run whose op counts aggregate to `n` under `scheme`: each category's
// count sits on the first op the scheme maps to it.
inline model::RunSample run_with_category_counts(
    const model::CategoryScheme& scheme, const model::CategoryCounts& n) {
  model::RunSample run;
  for (std::size_t c = 0; c < n.size(); ++c) {
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      if (scheme.category_of(static_cast<isa::Op>(i)) == c) {
        run.counts[i] = n[c];
        break;
      }
    }
  }
  return run;
}

}  // namespace nfp::test
