#include "analyze/bounds.h"

#include <cstdio>
#include <limits>
#include <map>
#include <queue>
#include <vector>

#include "analyze/cost.h"
#include "board/config.h"

namespace nfp::analyze {
namespace {

struct PathStep {
  std::uint32_t block = 0;
  int edge = -1;  // index into edges; -1 = terminal exit
};

struct Shortest {
  bool found = false;
  double total = 0.0;
  std::vector<PathStep> path;  // entry..exit, only filled when requested
};

// Dijkstra from the entry block over (block, edge) weights; the exit cost of
// a terminal block is the cost of executing it to its terminator.
Shortest shortest_path(const Cfg& cfg, const board::CostModel& costs,
                       bool energy_metric, bool want_path) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::map<std::uint32_t, double> dist;
  std::map<std::uint32_t, std::pair<std::uint32_t, int>> pred;
  using QItem = std::pair<double, std::uint32_t>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;

  Shortest best;
  double best_total = kInf;
  std::uint32_t best_exit = 0;
  if (cfg.blocks.count(cfg.entry) == 0) return best;
  dist[cfg.entry] = 0.0;
  queue.push({0.0, cfg.entry});
  // The energy metric is priced at the residual-envelope floor
  // (block_cost_dir): the board's dynamic corrections — operand-toggle
  // modulation, untaken-branch fetch discount — can push a real execution's
  // energy below the base table sum, and a guaranteed lower bound must sit
  // below all of them. Cycle residuals only ever add cycles, so the base
  // table already floors that metric.
  const auto weight = [&](const BasicBlock& blk, Exit exit, bool slot) {
    return energy_metric
               ? block_cost_dir(blk, costs, exit, slot, Dir::kLower).energy_nj
               : block_cost(blk, costs, exit, slot).cycles;
  };
  while (!queue.empty()) {
    const auto [d, addr] = queue.top();
    queue.pop();
    if (d > dist[addr]) continue;
    const BasicBlock& b = cfg.blocks.at(addr);
    if (is_exit(b)) {
      const double total = d + weight(b, Exit::kTerminal, true);
      if (total < best_total) {
        best_total = total;
        best_exit = addr;
        best.found = true;
      }
    }
    for (int i = 0; i < static_cast<int>(b.edges.size()); ++i) {
      const CfgEdge& e = b.edges[static_cast<std::size_t>(i)];
      if (cfg.blocks.count(e.target) == 0) continue;
      const double w = weight(b, edge_exit(e), e.includes_slot);
      const double nd = d + w;
      const auto it = dist.find(e.target);
      if (it == dist.end() || nd < it->second) {
        dist[e.target] = nd;
        pred[e.target] = {addr, i};
        queue.push({nd, e.target});
      }
    }
  }
  if (!best.found) return best;
  best.total = best_total;
  if (want_path) {
    std::vector<PathStep> rev;
    rev.push_back({best_exit, -1});
    std::uint32_t at = best_exit;
    while (at != cfg.entry) {
      const auto [from, edge] = pred.at(at);
      rev.push_back({from, edge});
      at = from;
    }
    best.path.assign(rev.rbegin(), rev.rend());
  }
  return best;
}

StaticVector vector_of_path(const Cfg& cfg, const board::CostModel& costs,
                            const std::vector<PathStep>& path) {
  StaticVector v;
  double cycles = 0.0;
  for (const PathStep& step : path) {
    const BasicBlock& b = cfg.blocks.at(step.block);
    const bool terminal = step.edge < 0;
    const bool slot =
        terminal ? !b.slot_annulled_always
                 : b.edges[static_cast<std::size_t>(step.edge)].includes_slot;
    const Exit exit =
        terminal ? Exit::kTerminal
                 : edge_exit(b.edges[static_cast<std::size_t>(step.edge)]);
    const BlockCost c = block_cost(b, costs, exit, slot);
    cycles += c.cycles;
    v.energy_nj += c.energy_nj;
    add_counts(v.op_counts, b, slot);
  }
  v.cycles = static_cast<std::uint64_t>(cycles);
  v.time_s = cycles / board::BoardConfig{}.clock_hz;
  for (const std::uint64_t n : v.op_counts) v.insns += n;
  return v;
}

void to_json(sim::JsonWriter& w, const StaticVector& v) {
  w.begin_object()
      .field("insns", v.insns)
      .field("cycles", v.cycles)
      .field("time_s", v.time_s)
      .field("energy_nj", v.energy_nj)
      .end_object();
}

}  // namespace

BoundsResult analyze_bounds(const Cfg& cfg, const board::CostModel& costs) {
  // Per-metric shortest entry→exit path.
  BoundsResult result;
  const Shortest time_path = shortest_path(cfg, costs, false, true);
  if (!time_path.found) return result;
  result.has_exit = true;
  result.lower = vector_of_path(cfg, costs, time_path.path);
  result.lower_energy_nj = shortest_path(cfg, costs, true, false).total;
  result.lower_exact = true;
  for (const PathStep& step : time_path.path) {
    const BasicBlock& b = cfg.blocks.at(step.block);
    if (step.edge < 0) {
      result.lower_exact = result.lower_exact && b.halt && b.edges.empty();
    } else {
      result.lower_exact = result.lower_exact && b.edges.size() == 1;
    }
  }
  return result;
}

std::string render(const BoundsResult& r) {
  char buf[160];
  std::string out;
  if (!r.has_exit) {
    return "lower bound: no statically halting path (trivial bound 0)\n";
  }
  std::snprintf(buf, sizeof buf,
                "lower bound (min-time path): %llu insns, %llu cycles, "
                "%.6g s, %.6g nJ\n",
                static_cast<unsigned long long>(r.lower.insns),
                static_cast<unsigned long long>(r.lower.cycles),
                r.lower.time_s, r.lower.energy_nj);
  out += buf;
  std::snprintf(buf, sizeof buf, "lower bound (min-energy path): %.6g nJ\n",
                r.lower_energy_nj);
  out += buf;
  out += std::string("lower bound is exact (single static path): ") +
         (r.lower_exact ? "yes" : "no") + "\n";
  return out;
}

void to_json(sim::JsonWriter& w, const BoundsResult& r) {
  w.begin_object().field("has_exit", r.has_exit);
  if (r.has_exit) {
    to_json(w.key("lower"), r.lower);
    w.field("lower_energy_nj", r.lower_energy_nj)
        .field("lower_exact", r.lower_exact);
  }
  w.end_object();
}

}  // namespace nfp::analyze
