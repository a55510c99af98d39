#include "nfp/estimator.h"

#include <stdexcept>

namespace nfp::model {

Estimate Estimator::estimate(const RunSample& run,
                             const CategoryCosts& costs) const {
  const std::vector<double> x = features(run);
  if (x.size() != costs.size()) {
    throw std::invalid_argument("Estimator: features/costs size mismatch");
  }
  Estimate e;
  double time_ns = 0.0;
  for (std::size_t t = 0; t < x.size(); ++t) {
    e.energy_nj += costs.energy_nj[t] * x[t];
    time_ns += costs.time_ns[t] * x[t];
  }
  e.time_s = time_ns * 1e-9;
  return e;
}

std::vector<double> Eq1Estimator::features(const RunSample& run) const {
  const CategoryCounts agg = scheme_.aggregate(run.counts);
  return std::vector<double>(agg.begin(), agg.end());
}

namespace {

// PMU event-counter model (2023 follow-on): a linear model over the
// board's exported hardware event counters alone — no disassembly, no
// per-opcode categories. This is what a deployment can observe on silicon
// where only a PMU is available: retired instructions carry the average
// per-instruction cost, and the memory/branch events price SDRAM row
// opens, cache misses and the taken/untaken asymmetry on top.
class EventsEstimator final : public Estimator {
 public:
  std::string_view name() const override { return "events"; }
  std::size_t terms() const override { return board::kEventCount; }
  std::string term_name(std::size_t t) const override {
    return std::string(board::event_name(static_cast<board::Event>(t)));
  }
  bool needs_board_run() const override { return true; }

  std::vector<double> features(const RunSample& run) const override {
    std::vector<double> x(board::kEventCount);
    for (std::size_t e = 0; e < board::kEventCount; ++e) {
      x[e] = static_cast<double>(run.events.v[e]);
    }
    return x;
  }
};

// Processing-time proxy (2015 follow-on): E ≈ P̄·T — one term, the
// measured run time, with the fitted coefficient playing the average-power
// role (the difference calibration cancels any constant offset E0). The
// time fit trivially converges to T̂ = T (coefficient 1e9 ns per second).
class TimeProxyEstimator final : public Estimator {
 public:
  std::string_view name() const override { return "time-proxy"; }
  std::size_t terms() const override { return 1; }
  std::string term_name(std::size_t) const override {
    return "Measured time";
  }
  bool needs_board_run() const override { return true; }

  std::vector<double> features(const RunSample& run) const override {
    return {run.measured_time_s};
  }
};

}  // namespace

const Estimator& eq1_estimator() {
  static const Eq1Estimator e(CategoryScheme::paper());
  return e;
}

const Estimator& events_estimator() {
  static const EventsEstimator e;
  return e;
}

const Estimator& time_proxy_estimator() {
  static const TimeProxyEstimator e;
  return e;
}

std::vector<const Estimator*> all_estimators() {
  return {&eq1_estimator(), &events_estimator(), &time_proxy_estimator()};
}

const Estimator* find_estimator(std::string_view name) {
  for (const Estimator* e : all_estimators()) {
    if (e->name() == name) return e;
  }
  return nullptr;
}

std::string estimator_names() {
  std::string out;
  for (const Estimator* e : all_estimators()) {
    if (!out.empty()) out += ", ";
    out += e->name();
  }
  return out;
}

}  // namespace nfp::model
