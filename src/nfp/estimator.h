// Estimation schemes: how NFPs are predicted from a run.
//
// The paper's mechanistic model (Eq. 1)
//   Ê = Σ_c e_c · n_c      T̂ = Σ_c t_c · n_c
// is one point in a family; the same group later showed that PMU event
// counters (2023) and a pure processing-time proxy (2015) estimate energy
// with comparable accuracy and fewer terms. Every scheme here is a linear
// model over a scheme-specific feature vector extracted from a RunSample,
// and Estimator::estimate() is the one Σ_t w_t · x_t accumulation that
// prices a run under any of them.
//
// Registered schemes (find_estimator / all_estimators):
//   eq1        — the paper's per-category linear model over ISS op counts,
//                over the nine Table-I categories. Eq1Estimator builds the
//                same model over any other CategoryScheme.
//   events     — a linear model over the exported PMU-style hardware
//                counters alone (board/events.h): what a deployment could
//                estimate from on silicon without any disassembly. Needs a
//                board run for the counters.
//   time-proxy — energy proportional to the measured run time (E ≈ P̄·T).
//                Needs a board run for the time measurement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "board/events.h"
#include "nfp/scheme.h"

namespace nfp::model {

// Instruction-specific costs per model term (Table I for eq1): e in nJ,
// t in ns. Alternative schemes reuse the container for their fitted
// coefficient vectors, in the same units.
struct CategoryCosts {
  std::vector<double> energy_nj;
  std::vector<double> time_ns;

  std::size_t size() const { return energy_nj.size(); }
};

struct Estimate {
  double energy_nj = 0.0;
  double time_s = 0.0;
};

// Everything a scheme may draw features from. eq1 needs only the ISS op
// counts; events and time-proxy additionally need the board-side PMU export
// and the bench time measurement (zeros when no board run happened — the
// schemes that need them must be fed a board run).
struct RunSample {
  OpCounts counts{};
  std::uint64_t instret = 0;
  board::EventCounters events{};
  double measured_time_s = 0.0;
};

class Estimator {
 public:
  virtual ~Estimator() = default;

  // Stable registry key ("eq1", "events", "time-proxy").
  virtual std::string_view name() const = 0;
  // Number of model terms (coefficient vector length).
  virtual std::size_t terms() const = 0;
  virtual std::string term_name(std::size_t t) const = 0;
  // The feature vector x for the linear model X̂ = Σ_t w_t · x_t.
  virtual std::vector<double> features(const RunSample& run) const = 0;
  // Whether features depend on a board run (events / measured time). The
  // ISS alone cannot feed such a scheme.
  virtual bool needs_board_run() const = 0;

  // X̂ = Σ_t w_t · x_t: energy and time summed in term order, time scaled
  // to seconds once at the end. Throws std::invalid_argument when the
  // coefficient vector does not have one entry per term.
  Estimate estimate(const RunSample& run, const CategoryCosts& costs) const;
};

// The paper's Eq. 1 over a category scheme: one term per category of
// `scheme`, the feature being that category's aggregated retire count.
// eq1_estimator() is this model over CategoryScheme::paper(); the scheme
// must outlive the estimator.
class Eq1Estimator final : public Estimator {
 public:
  explicit Eq1Estimator(const CategoryScheme& scheme) : scheme_(scheme) {}
  explicit Eq1Estimator(CategoryScheme&&) = delete;  // would dangle

  const CategoryScheme& scheme() const { return scheme_; }

  std::string_view name() const override { return "eq1"; }
  std::size_t terms() const override { return scheme_.size(); }
  std::string term_name(std::size_t t) const override {
    return scheme_.category_name(t);
  }
  bool needs_board_run() const override { return false; }
  std::vector<double> features(const RunSample& run) const override;

 private:
  const CategoryScheme& scheme_;
};

// Registered scheme singletons (eq1 over the paper's nine categories).
const Estimator& eq1_estimator();
const Estimator& events_estimator();
const Estimator& time_proxy_estimator();

// All registered schemes, in a stable order (eq1 first).
std::vector<const Estimator*> all_estimators();

// Lookup by registry key; nullptr when unknown.
const Estimator* find_estimator(std::string_view name);

// The valid "--scheme" values, comma-separated (CLI error messages).
std::string estimator_names();

}  // namespace nfp::model
