// Three-way accuracy triangle on the paper's 120-kernel campaign (Sec. VI):
// execution-free IPET static interval vs ISS estimate (Eq. 1) vs board
// ground truth, per kernel and aggregated.
//
// Hard invariants (any violation prints the kernel and exits nonzero):
//   - containment: the board ground truth (instret, cycles, energy, time)
//     lies inside the static [lower, upper] for every accepted kernel;
//   - coverage: at least 80 of the 120 kernels are accepted by the static
//     estimator (counted-loop inference first, profile-derived absolute
//     totals as the fallback for data-dependent loops);
//   - dominance: the IPET lower bound is >= the Dijkstra shortest-path
//     lower bound on every accepted kernel (both are sound, IPET must not
//     be weaker).
//
// Tightness (how much the interval overshoots reality) is reported as
// eps = bound/truth - 1 per metric, aggregated as mean and max, and the
// whole table is persisted as BENCH_static_triangle.json for trend
// tracking across commits.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analyze/bounds.h"
#include "analyze/cfg.h"
#include "analyze/ipet.h"
#include "analyze/profile.h"
#include "nfp/campaign.h"
#include "sim/json.h"
#include "support.h"
#include "workloads/kernels.h"

namespace {

using namespace nfp;

struct TriangleRow {
  std::string name;
  bool accepted = false;
  std::string refusal;      // slug when !accepted
  bool used_profile = false;  // needed the absolute-total fallback
  analyze::IpetResult ipet;
  // Board ground truth.
  std::uint64_t instret = 0;
  std::uint64_t cycles = 0;
  double energy_nj = 0.0;
  double time_s = 0.0;
  // ISS estimate (Eq. 1) from the calibrated table.
  model::Estimate estimate;
  // Dijkstra lower bounds (bounds.cpp) for the dominance check.
  double dij_cycles = 0.0;
  double dij_energy_nj = 0.0;
};

struct Tightness {
  double sum = 0.0;
  double max = 0.0;
  std::size_t n = 0;
  void add(double eps) {
    sum += eps;
    max = std::max(max, eps);
    ++n;
  }
  double mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

// Relative slack for double-summed energy/time comparisons: both sides
// accumulate hundreds of thousands of doubles in different orders.
constexpr double kRelSlack = 1e-9;

bool inside(double truth, double lower, double upper) {
  const double slack = kRelSlack * std::max(1.0, std::abs(truth));
  return truth >= lower - slack && truth <= upper + slack;
}

}  // namespace

int main() {
  std::vector<model::KernelJob> jobs;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    for (auto& j : workloads::make_mvc_jobs(abi)) jobs.push_back(std::move(j));
    for (auto& j : workloads::make_fse_jobs(abi)) jobs.push_back(std::move(j));
  }
  std::printf("campaign: %zu kernels (MVC + FSE, both ABIs)\n", jobs.size());

  const board::BoardConfig board_cfg;
  const board::CostModel costs;

  // Leg 1+2 of the triangle: board ground truth and the Eq. 1 estimate.
  const auto calibration =
      model::Calibrator().fit(model::eq1_estimator(), board_cfg);
  const auto records = model::Campaign(board_cfg, 4).run(jobs);

  // Leg 3: the execution-free static interval. Inference first; kernels
  // with data-dependent (image-driven) loops fall back to absolute header
  // totals from one profiled reference run.
  std::vector<TriangleRow> rows(jobs.size());
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t accepted = 0, profiled = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    TriangleRow& row = rows[i];
    row.name = jobs[i].name;
    const analyze::Cfg cfg = analyze::build_cfg(jobs[i].program);
    analyze::IpetConfig icfg;
    row.ipet = analyze::analyze_ipet(cfg, costs, icfg);
    if (!row.ipet.accepted &&
        (row.ipet.refusal == analyze::IpetRefusal::kUnboundedLoop)) {
      const analyze::PcProfile prof =
          analyze::profile_pcs(jobs[i].program, jobs[i].inputs);
      if (prof.halted) {
        icfg.loop_totals = analyze::block_totals(cfg, prof);
        row.ipet = analyze::analyze_ipet(cfg, costs, icfg);
        row.used_profile = true;
      }
    }
    row.accepted = row.ipet.accepted;
    if (row.accepted) {
      ++accepted;
      if (row.used_profile) ++profiled;
      const analyze::BoundsResult dij = analyze::analyze_bounds(cfg, costs);
      row.dij_cycles = static_cast<double>(dij.lower.cycles);
      row.dij_energy_nj = dij.lower_energy_nj;
    } else {
      row.refusal = analyze::to_string(row.ipet.refusal);
    }
  }
  const double static_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  int violations = 0;
  std::size_t estimate_inside = 0;
  Tightness up_cycles, up_energy, lo_cycles, lo_energy;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    TriangleRow& row = rows[i];
    const auto& rec = records[i];
    if (!rec.ok) {
      std::printf("  DYNAMIC FAILURE %s: %s\n", rec.name.c_str(),
                  rec.error.c_str());
      ++violations;
      continue;
    }
    row.instret = rec.instret;
    row.cycles = rec.cycles;
    row.energy_nj = rec.true_energy_nj;
    row.time_s = rec.true_time_s;
    row.estimate =
        model::eq1_estimator().estimate(model::run_sample(rec),
                                        calibration.costs);
    if (!row.accepted) continue;

    const auto& p = row.ipet;
    const double truth_insns = static_cast<double>(row.instret);
    const double truth_cycles = static_cast<double>(row.cycles);
    if (!inside(truth_insns, p.insns.lower, p.insns.upper) ||
        !inside(truth_cycles, p.cycles.lower, p.cycles.upper) ||
        !inside(row.energy_nj, p.energy_nj.lower, p.energy_nj.upper) ||
        !inside(row.time_s, p.time_s.lower, p.time_s.upper)) {
      std::printf(
          "  CONTAINMENT VIOLATION %s: truth insns %llu cycles %llu "
          "energy %.6g time %.6g vs insns [%g, %g] cycles [%g, %g] "
          "energy [%g, %g] time [%g, %g]\n",
          row.name.c_str(), static_cast<unsigned long long>(row.instret),
          static_cast<unsigned long long>(row.cycles), row.energy_nj,
          row.time_s, p.insns.lower, p.insns.upper, p.cycles.lower,
          p.cycles.upper, p.energy_nj.lower, p.energy_nj.upper,
          p.time_s.lower, p.time_s.upper);
      ++violations;
    }
    if (p.cycles.lower < row.dij_cycles - kRelSlack * row.dij_cycles ||
        p.energy_nj.lower <
            row.dij_energy_nj - kRelSlack * row.dij_energy_nj) {
      std::printf("  DOMINANCE VIOLATION %s: ipet lower (%g cyc, %g nJ) "
                  "below dijkstra (%g cyc, %g nJ)\n",
                  row.name.c_str(), p.cycles.lower, p.energy_nj.lower,
                  row.dij_cycles, row.dij_energy_nj);
      ++violations;
    }
    if (truth_cycles > 0.0) {
      up_cycles.add(p.cycles.upper / truth_cycles - 1.0);
      lo_cycles.add(1.0 - p.cycles.lower / truth_cycles);
    }
    if (row.energy_nj > 0.0) {
      up_energy.add(p.energy_nj.upper / row.energy_nj - 1.0);
      lo_energy.add(1.0 - p.energy_nj.lower / row.energy_nj);
    }
    if (inside(row.estimate.energy_nj, p.energy_nj.lower, p.energy_nj.upper) &&
        inside(row.estimate.time_s, p.time_s.lower, p.time_s.upper)) {
      ++estimate_inside;
    }
  }

  std::printf(
      "static estimator: %zu/%zu accepted (%zu via profile totals), "
      "%zu refused, %.2f s total (%.1f ms/kernel)\n",
      accepted, rows.size(), profiled, rows.size() - accepted, static_s,
      1e3 * static_s / static_cast<double>(rows.size()));
  for (const auto& row : rows) {
    if (!row.accepted) {
      std::printf("  refused %-28s %s\n", row.name.c_str(),
                  row.refusal.c_str());
    }
  }
  std::printf("tightness (accepted kernels, eps = bound/truth - 1):\n");
  std::printf("  cycles upper: mean %.3f max %.3f   lower: mean %.3f max "
              "%.3f\n",
              up_cycles.mean(), up_cycles.max, lo_cycles.mean(),
              lo_cycles.max);
  std::printf("  energy upper: mean %.3f max %.3f   lower: mean %.3f max "
              "%.3f\n",
              up_energy.mean(), up_energy.max, lo_energy.mean(),
              lo_energy.max);
  std::printf("ISS estimate inside the static interval: %zu/%zu\n",
              estimate_inside, accepted);

  // Persist the triangle for trend tracking (same repo-root convention as
  // BENCH_simspeed.json).
  sim::JsonWriter json;
  json.begin_object().field("kernels", rows.size());
  json.field("accepted", accepted).field("profiled", profiled);
  json.field("violations", violations);
  json.field("estimate_inside", estimate_inside);
  json.field("static_seconds", static_s).key("eps").begin_object();
  // {"<k1>":a,"<k2>":b} under `name`.
  const auto pair = [&json](const char* name, const char* k1, double a,
                            const char* k2, double b) {
    json.key(name).begin_object().field(k1, a).field(k2, b).end_object();
  };
  pair("cycles_upper", "mean", up_cycles.mean(), "max", up_cycles.max);
  pair("cycles_lower", "mean", lo_cycles.mean(), "max", lo_cycles.max);
  pair("energy_upper", "mean", up_energy.mean(), "max", up_energy.max);
  pair("energy_lower", "mean", lo_energy.mean(), "max", lo_energy.max);
  json.end_object().key("rows").begin_array();
  const auto interval = [&json](const char* name,
                                const analyze::IpetInterval& i) {
    json.key(name).begin_array().value(i.lower).value(i.upper).end_array();
  };
  for (const auto& row : rows) {
    json.begin_object().field("name", row.name);
    json.field("accepted", row.accepted);
    if (row.accepted) {
      json.field("profiled", row.used_profile).key("truth").begin_object();
      json.field("insns", row.instret).field("cycles", row.cycles);
      json.field("energy_nj", row.energy_nj).field("time_s", row.time_s);
      json.end_object();
      json.key("static").begin_object();
      interval("insns", row.ipet.insns);
      interval("cycles", row.ipet.cycles);
      interval("energy_nj", row.ipet.energy_nj);
      interval("time_s", row.ipet.time_s);
      json.end_object();
      pair("estimate", "energy_nj", row.estimate.energy_nj, "time_s",
           row.estimate.time_s);
    } else {
      json.field("refusal", row.refusal);
    }
    json.end_object();
  }
  json.end_array().end_object();
  if (std::FILE* f = std::fopen("BENCH_static_triangle.json", "w")) {
    std::fprintf(f, "%s\n", json.str().c_str());
    std::fclose(f);
    std::printf("wrote BENCH_static_triangle.json\n");
  }

  if (accepted < 80) {
    std::printf("FAIL: only %zu/%zu kernels accepted (need >= 80)\n",
                accepted, rows.size());
    return 1;
  }
  if (violations > 0) {
    std::printf("FAIL: %d hard-invariant violation(s)\n", violations);
    return 1;
  }
  std::printf("PASS: ground truth inside every accepted interval, "
              "ipet lower >= dijkstra lower everywhere\n");
  return 0;
}
