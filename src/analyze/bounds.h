// Static (pre-run) NFP lower bound from a recovered CFG.
//
// Folds per-block category histograms with the board cost model along the
// cheapest entry→exit path (per-metric Dijkstra with delay-slot exclusion and
// taken/untaken branch cycle variants): a guaranteed lower bound on any
// halting execution, and exact (equal to the dynamic retire vector) on
// single-path programs. Upper bounds come from the IPET solver (ipet.h),
// which also uses this bound as its clamp.
//
// The op-count vector can be priced by the same Estimator and calibrated
// costs as a dynamic run (a RunSample carrying only the counts), giving a
// static Ê/T̂ directly comparable with the ISS-derived estimate.
#pragma once

#include <cstdint>
#include <string>

#include "analyze/cfg.h"
#include "board/cost_model.h"
#include "nfp/scheme.h"
#include "sim/json.h"

namespace nfp::analyze {

// A static execution vector: op counts plus their cost-model fold.
struct StaticVector {
  model::OpCounts op_counts{};
  std::uint64_t insns = 0;
  std::uint64_t cycles = 0;
  double energy_nj = 0.0;
  double time_s = 0.0;
};

struct BoundsResult {
  bool has_exit = false;  // some halting/exiting path exists statically
  StaticVector lower;     // along the min-time path (zero when !has_exit)
  // Min-energy path total (may follow a different path), priced at the
  // residual-envelope floor (cost.h block_cost_dir): a guaranteed lower
  // bound even against the board's operand-toggle and untaken-branch energy
  // discounts.
  double lower_energy_nj = 0.0;
  // True when the lower path is the only execution path (every block on it
  // has at most one successor): the static vector then equals the dynamic
  // retire vector exactly.
  bool lower_exact = false;
};

BoundsResult analyze_bounds(const Cfg& cfg, const board::CostModel& costs);

// Human-readable report (used by nfplint --bounds).
std::string render(const BoundsResult& result);

// One JSON object, for nfplint --bounds --json.
void to_json(sim::JsonWriter& w, const BoundsResult& result);

}  // namespace nfp::analyze
