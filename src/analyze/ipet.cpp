#include "analyze/ipet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analyze/callgraph.h"
#include "analyze/cost.h"
#include "analyze/loops.h"
#include "analyze/lp.h"
#include "board/config.h"

namespace nfp::analyze {
namespace {

using lp::Rat;

// Fixed-point denominator for double cost coefficients. Energy values are
// O(1..10) nJ per instruction, so 2^20 keeps ~1e-6 relative slack while
// bounding every denominator in the tableau.
constexpr long long kScale = 1 << 20;

// Directed double -> rational: the result is >= v (up) or <= v (!up).
Rat rat_of_cost(double v, bool up) {
  const long double k = static_cast<long double>(v) * kScale;
  const long double r = up ? std::ceil(k) : std::floor(k);
  if (!(r > -9.0e18L && r < 9.0e18L)) throw lp::LpOverflow{};
  return Rat::frac(static_cast<long long>(r), kScale);
}

enum Metric { kInsns = 0, kCycles = 1, kEnergy = 2, kMetricCount = 3 };
enum Sense { kMin = 0, kMax = 1 };

// One function's solved contribution, inlined at every call site.
struct FuncSummary {
  Rat val[kMetricCount][2];            // [metric][sense]
  std::vector<Rat> opvec[2];           // op-count witness per sense
  FuncSummary() {
    opvec[kMin].assign(isa::kOpCount, Rat(0));
    opvec[kMax].assign(isa::kOpCount, Rat(0));
  }
};

// An LP variable: flow along one intra edge, or out of one exit block.
struct Var {
  std::uint32_t block = 0;   // source block
  std::uint32_t target = 0;  // meaningful when !exit
  int cfg_edge = -1;         // index into block's CfgEdge list, -1 otherwise
  bool is_call = false;      // synthesized call-continuation edge
  std::uint32_t callee = 0;  // when is_call
  bool exit = false;
};

struct Refuse {
  IpetRefusal what;
  std::uint32_t block;
  std::string detail;
};

std::string list_hex(const std::vector<std::uint32_t>& addrs) {
  std::string out;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (i != 0) out += " -> ";
    out += hex(addrs[i]);
  }
  return out;
}

// Per-(metric, sense) coefficient of one variable: the source block's cost
// leaving along this edge, plus the callee summary on continuation edges.
// Cycles and energy are priced at the residual envelope's matching end
// (block_cost_dir), so the interval brackets every cost the board's dynamic
// corrections can charge.
Rat coef_of(const Var& v, const Cfg& cfg, const board::CostModel& costs,
            const std::map<std::uint32_t, FuncSummary>& summaries, Metric m,
            bool maximize) {
  const BasicBlock& b = cfg.blocks.at(v.block);
  Exit exit = Exit::kTerminal;
  bool slot = !b.slot_annulled_always;
  if (!v.exit) {
    int idx = v.cfg_edge;
    if (v.is_call) {
      for (std::size_t i = 0; i < b.edges.size(); ++i) {
        if (b.edges[i].kind == CfgEdge::Kind::kCall) {
          idx = static_cast<int>(i);
        }
      }
    }
    const CfgEdge& e = b.edges[static_cast<std::size_t>(idx)];
    exit = edge_exit(e);
    slot = e.includes_slot;
  }
  Rat c;
  switch (m) {
    case kInsns: {
      const std::uint64_t skipped = b.has_slot && !slot ? 1 : 0;
      c = static_cast<long long>(b.insns.size() - skipped);
      break;
    }
    case kCycles:
      // Cycle residuals are integral (row-miss penalty, taken/untaken), so
      // the directed double is an exact integer.
      c = static_cast<long long>(std::llround(
          block_cost_dir(b, costs, exit, slot,
                         maximize ? Dir::kUpper : Dir::kLower)
              .cycles));
      break;
    default:
      c = rat_of_cost(block_cost_dir(b, costs, exit, slot,
                                     maximize ? Dir::kUpper : Dir::kLower)
                          .energy_nj,
                      maximize);
      break;
  }
  if (v.is_call) c = c + summaries.at(v.callee).val[m][maximize ? kMax : kMin];
  return c;
}

void add_op_witness(std::vector<Rat>& acc, const BasicBlock& b, bool slot,
                    const Rat& flow) {
  for (std::size_t i = 0; i < b.insns.size(); ++i) {
    if (b.has_slot && i == b.insns.size() - 1 && !slot) continue;
    const auto op = static_cast<std::size_t>(b.insns[i].op);
    acc[op] = acc[op] + flow;
  }
}

struct SolveOutcome {
  bool ok = false;
  bool zeroed = false;  // callee statically dead under profile totals
  std::optional<Refuse> refusal;
  FuncSummary summary;
  std::uint64_t pivots = 0;
  std::vector<IpetLoop> loops;
};

SolveOutcome solve_function(const Cfg& cfg, const board::CostModel& costs,
                            const IpetConfig& config, const CallGraph& cg,
                            const FuncInfo& f, bool is_root,
                            const std::map<std::uint32_t, FuncSummary>& done) {
  SolveOutcome out;
  const auto refuse = [&out](IpetRefusal what, std::uint32_t block,
                             std::string detail) {
    out.refusal = Refuse{what, block, std::move(detail)};
  };

  // Structural pre-checks: every terminator the flow model cannot price is
  // an explicit refusal.
  if (!f.bad_indirect.empty()) {
    const std::uint32_t a = f.bad_indirect.front();
    refuse(IpetRefusal::kIndirectJump, a,
           "indirect control flow (jmpl) at " + hex(cfg.blocks.at(a).cti_pc));
    return out;
  }
  if (!f.fault_blocks.empty()) {
    refuse(IpetRefusal::kFaultPath, f.fault_blocks.front(),
           "reachable faulting block at " + hex(f.fault_blocks.front()));
    return out;
  }
  if (!f.trap_blocks.empty()) {
    refuse(IpetRefusal::kConditionalTrap, f.trap_blocks.front(),
           "conditional trap at " + hex(f.trap_blocks.front()));
    return out;
  }
  if (!f.dead_ends.empty()) {
    refuse(IpetRefusal::kDeadEnd, f.dead_ends.front(),
           "block without successors or terminator at " +
               hex(f.dead_ends.front()));
    return out;
  }
  for (const CallSite& site : f.calls) {
    if (!site.callee_ok || !site.cont_ok) {
      refuse(IpetRefusal::kCalleeOffImage, site.block,
             "call at " + hex(site.call_pc) +
                 (site.callee_ok ? " returns off image" : " targets " +
                                       hex(site.callee) + " off image"));
      return out;
    }
  }
  const std::vector<std::uint32_t>& exits = is_root ? f.halts : f.returns;
  if (is_root && !f.returns.empty()) {
    refuse(IpetRefusal::kReturnFromEntry, f.returns.front(),
           "entry function reaches a return couple at " +
               hex(f.returns.front()));
    return out;
  }
  if (!is_root && !f.halts.empty()) {
    refuse(IpetRefusal::kHaltInCallee, f.halts.front(),
           "static halt inside callee " + hex(f.entry) + " at " +
               hex(f.halts.front()));
    return out;
  }
  if (exits.empty()) {
    refuse(IpetRefusal::kNoExit, f.entry,
           std::string(is_root ? "entry function" : "callee") + " " +
               hex(f.entry) + " has no " + (is_root ? "halting" : "return") +
               " block");
    return out;
  }

  // Loop structure and bound rows.
  const SuccMap succs = f.succ_view();
  const DomTree dom = build_domtree(f.entry, succs);
  const LoopForest forest = find_natural_loops(f.entry, succs, dom);
  if (forest.irreducible) {
    refuse(IpetRefusal::kIrreducible, forest.offender_to,
           "irreducible region: retreating edge " + hex(forest.offender_from) +
               " -> " + hex(forest.offender_to) +
               " whose target does not dominate its source");
    return out;
  }
  const ClobberMask clobbers = [&](const BasicBlock& b) -> std::uint32_t {
    for (const CfgEdge& e : b.edges) {
      if (e.kind == CfgEdge::Kind::kCall && cg.functions.count(e.target)) {
        return cg.functions.at(e.target).reg_writes;
      }
    }
    return 0;
  };
  struct LoopRows {
    const NaturalLoop* loop;
    std::optional<std::uint64_t> relative;
    std::optional<std::uint64_t> total;
  };
  std::vector<LoopRows> loop_rows;
  for (const NaturalLoop& loop : forest.loops) {
    LoopRows rows{&loop, std::nullopt, std::nullopt};
    IpetLoop rec;
    rec.function = f.entry;
    rec.header = loop.header;
    rec.depth = loop.depth;
    const auto annotated = config.loop_bounds.find(loop.header);
    const auto total = config.loop_totals.find(loop.header);
    if (total != config.loop_totals.end()) rows.total = total->second;
    if (annotated != config.loop_bounds.end()) {
      rows.relative = annotated->second;
      rec.source = IpetBoundSource::kAnnotated;
      rec.bound = annotated->second;
    } else {
      const std::optional<CountedBound> inferred = infer_counted_bound(
          cfg, dom, f.blocks, succs, forest.loops, loop, clobbers);
      if (inferred.has_value()) {
        rows.relative = inferred->bound;
        rec.source = IpetBoundSource::kInferred;
        rec.bound = inferred->bound;
        rec.detail = inferred->detail;
      } else if (rows.total.has_value()) {
        rec.source = IpetBoundSource::kTotal;
        rec.bound = *rows.total;
      } else {
        refuse(IpetRefusal::kUnboundedLoop, loop.header,
               "loop at " + hex(loop.header) + " has no static bound");
        return out;
      }
    }
    out.loops.push_back(std::move(rec));
    loop_rows.push_back(rows);
  }

  // Variables: one per intra edge, one per exit block.
  std::vector<Var> vars;
  std::map<std::uint32_t, std::vector<int>> out_vars, in_vars;
  for (const std::uint32_t addr : f.blocks) {
    const auto eit = f.edges.find(addr);
    if (eit == f.edges.end()) continue;
    for (const IntraEdge& ie : eit->second) {
      Var v;
      v.block = addr;
      v.target = ie.to;
      v.cfg_edge = ie.cfg_edge;
      if (ie.cfg_edge < 0) {
        v.is_call = true;
        for (const CallSite& site : f.calls) {
          if (site.block == addr) v.callee = site.callee;
        }
      }
      const int id = static_cast<int>(vars.size());
      vars.push_back(v);
      out_vars[addr].push_back(id);
      in_vars[ie.to].push_back(id);
    }
  }
  for (const std::uint32_t addr : exits) {
    Var v;
    v.block = addr;
    v.exit = true;
    const int id = static_cast<int>(vars.size());
    vars.push_back(v);
    out_vars[addr].push_back(id);
  }

  lp::Problem problem;
  problem.num_vars = static_cast<int>(vars.size());
  for (const std::uint32_t addr : f.blocks) {
    lp::Row row;
    row.kind = lp::RowKind::kEq;
    row.rhs = addr == f.entry ? 1 : 0;
    for (const int id : out_vars[addr]) row.terms.push_back({id, Rat(1)});
    for (const int id : in_vars[addr]) row.terms.push_back({id, Rat(-1)});
    problem.rows.push_back(std::move(row));
  }
  for (const LoopRows& lr : loop_rows) {
    std::vector<int> back, entering;
    for (const auto& [id_list_addr, ids] : in_vars) {
      if (id_list_addr != lr.loop->header) continue;
      for (const int id : ids) {
        (lr.loop->body.count(vars[static_cast<std::size_t>(id)].block)
             ? back
             : entering)
            .push_back(id);
      }
    }
    const bool header_is_entry = lr.loop->header == f.entry;
    if (lr.relative.has_value()) {
      // Header executions <= B per loop entry:
      //   sum(back) - (B-1) * sum(entering) <= (B-1 if entry sources here).
      const auto b = static_cast<long long>(
          std::min<std::uint64_t>(*lr.relative, 1ull << 40));
      lp::Row row;
      row.kind = lp::RowKind::kLe;
      if (b == 0) {
        // Bound 0: the header may never execute at all.
        row.rhs = header_is_entry ? -1 : 0;
        for (const int id : back) row.terms.push_back({id, Rat(1)});
        for (const int id : entering) row.terms.push_back({id, Rat(1)});
      } else {
        row.rhs = header_is_entry ? b - 1 : 0;
        for (const int id : back) row.terms.push_back({id, Rat(1)});
        for (const int id : entering) {
          row.terms.push_back({id, Rat(1 - b)});
        }
      }
      problem.rows.push_back(std::move(row));
    }
    if (lr.total.has_value()) {
      // Absolute header-execution total (whole-program profile count).
      const auto t = static_cast<long long>(
          std::min<std::uint64_t>(*lr.total, 1ull << 40));
      lp::Row row;
      row.kind = lp::RowKind::kLe;
      row.rhs = t - (header_is_entry ? 1 : 0);
      for (const int id : back) row.terms.push_back({id, Rat(1)});
      for (const int id : entering) row.terms.push_back({id, Rat(1)});
      problem.rows.push_back(std::move(row));
    }
  }

  try {
    const lp::Simplex simplex(problem);
    out.pivots += simplex.phase1_pivots();
    if (!simplex.feasible()) {
      if (!is_root && !config.loop_totals.empty()) {
        // A callee whose profile totals pin every path to zero flow never
        // ran in the reference execution; a zero summary keeps the caller's
        // LP sound (the actual flow routes no flow through its call sites).
        out.ok = true;
        out.zeroed = true;
        out.loops.clear();
        return out;
      }
      refuse(IpetRefusal::kLpInfeasible, f.entry,
             "flow constraints for " + hex(f.entry) + " admit no execution");
      return out;
    }
    for (int m = 0; m < kMetricCount; ++m) {
      for (int sense = 0; sense < 2; ++sense) {
        const bool maximize = sense == kMax;
        std::vector<Rat> objective(vars.size());
        for (std::size_t i = 0; i < vars.size(); ++i) {
          objective[i] = coef_of(vars[i], cfg, costs, done,
                                 static_cast<Metric>(m), maximize);
        }
        const lp::Solution sol = simplex.optimize(objective, maximize);
        out.pivots += sol.pivots;
        if (sol.status == lp::LpStatus::kUnbounded) {
          refuse(IpetRefusal::kLpUnbounded, f.entry,
                 "objective unbounded for " + hex(f.entry) +
                     " (a loop escaped every bound row)");
          return out;
        }
        if (sol.status != lp::LpStatus::kOptimal) {
          refuse(IpetRefusal::kLpIterLimit, f.entry,
                 "simplex pivot budget exhausted for " + hex(f.entry));
          return out;
        }
        out.summary.val[m][sense] = sol.objective;
        if (m == kCycles) {
          // The cycles vertex doubles as the op-count witness.
          std::vector<Rat>& acc = out.summary.opvec[sense];
          for (std::size_t i = 0; i < vars.size(); ++i) {
            const Rat& flow = sol.x[i];
            if (flow.is_zero()) continue;
            const Var& v = vars[i];
            const BasicBlock& b = cfg.blocks.at(v.block);
            bool slot = !b.slot_annulled_always;
            if (!v.exit) {
              int idx = v.cfg_edge;
              if (v.is_call) {
                for (std::size_t j = 0; j < b.edges.size(); ++j) {
                  if (b.edges[j].kind == CfgEdge::Kind::kCall) {
                    idx = static_cast<int>(j);
                  }
                }
              }
              slot = b.edges[static_cast<std::size_t>(idx)].includes_slot;
            }
            add_op_witness(acc, b, slot, flow);
            if (v.is_call) {
              const std::vector<Rat>& callee = done.at(v.callee).opvec[sense];
              for (std::size_t op = 0; op < callee.size(); ++op) {
                if (!callee[op].is_zero()) {
                  acc[op] = acc[op] + flow * callee[op];
                }
              }
            }
          }
        }
      }
    }
  } catch (const lp::LpOverflow&) {
    refuse(IpetRefusal::kLpOverflow, f.entry,
           "exact LP arithmetic overflowed for " + hex(f.entry));
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace

const char* to_string(IpetRefusal refusal) {
  switch (refusal) {
    case IpetRefusal::kNone: return "none";
    case IpetRefusal::kLintErrors: return "lint-errors";
    case IpetRefusal::kNoEntry: return "no-entry";
    case IpetRefusal::kIndirectJump: return "indirect-jmpl";
    case IpetRefusal::kCalleeOffImage: return "callee-off-image";
    case IpetRefusal::kRecursion: return "recursion";
    case IpetRefusal::kIrreducible: return "irreducible-loop";
    case IpetRefusal::kUnboundedLoop: return "unbounded-loop";
    case IpetRefusal::kHaltInCallee: return "halt-in-callee";
    case IpetRefusal::kReturnFromEntry: return "return-from-entry";
    case IpetRefusal::kNoExit: return "no-exit";
    case IpetRefusal::kFaultPath: return "fault-path";
    case IpetRefusal::kConditionalTrap: return "conditional-trap";
    case IpetRefusal::kDeadEnd: return "dead-end";
    case IpetRefusal::kLpInfeasible: return "lp-infeasible";
    case IpetRefusal::kLpUnbounded: return "lp-unbounded";
    case IpetRefusal::kLpOverflow: return "lp-overflow";
    case IpetRefusal::kLpIterLimit: return "lp-iter-limit";
  }
  return "unknown";
}

IpetResult analyze_ipet(const Cfg& cfg, const board::CostModel& costs,
                        const IpetConfig& config) {
  IpetResult result;
  const auto refuse = [&result](IpetRefusal what, std::uint32_t block,
                                std::string detail) {
    result.refusal = what;
    result.refusal_block = block;
    result.refusal_detail = std::move(detail);
  };
  if (cfg.has_errors()) {
    std::uint32_t pc = 0;
    for (const LintFinding& finding : cfg.findings) {
      if (finding.severity == Severity::kError) {
        pc = finding.pc;
        break;
      }
    }
    refuse(IpetRefusal::kLintErrors, pc,
           "CFG recovery reported " + std::to_string(cfg.error_count()) +
               " lint error(s)");
    return result;
  }
  if (cfg.blocks.count(cfg.entry) == 0) {
    refuse(IpetRefusal::kNoEntry, cfg.entry,
           "entry " + hex(cfg.entry) + " is not a recovered block");
    return result;
  }

  const CallGraph cg = build_callgraph(cfg);
  if (cg.recursive) {
    refuse(IpetRefusal::kRecursion, cg.cycle.empty() ? cfg.entry : cg.cycle[0],
           "recursive call cycle: " + list_hex(cg.cycle));
    return result;
  }
  result.functions = cg.topo.size();

  std::map<std::uint32_t, FuncSummary> summaries;
  std::uint64_t pivots = 0;
  for (const std::uint32_t entry : cg.topo) {
    const FuncInfo& f = cg.functions.at(entry);
    SolveOutcome out = solve_function(cfg, costs, config, cg, f,
                                      entry == cg.root, summaries);
    pivots += out.pivots;
    if (!out.ok) {
      const Refuse& r = *out.refusal;
      refuse(r.what, r.block, r.detail);
      result.lp_pivots = pivots;
      return result;
    }
    for (IpetLoop& loop : out.loops) result.loops.push_back(std::move(loop));
    summaries.emplace(entry, std::move(out.summary));
  }
  result.lp_pivots = pivots;

  const FuncSummary& root = summaries.at(cg.root);
  result.insns.lower = root.val[kInsns][kMin].to_double_dir(false);
  result.insns.upper = root.val[kInsns][kMax].to_double_dir(true);
  result.cycles.lower = root.val[kCycles][kMin].to_double_dir(false);
  result.cycles.upper = root.val[kCycles][kMax].to_double_dir(true);
  result.energy_nj.lower = root.val[kEnergy][kMin].to_double_dir(false);
  result.energy_nj.upper = root.val[kEnergy][kMax].to_double_dir(true);

  // Clamp the lower bound to the Dijkstra shortest path: both are sound
  // lower bounds, so their max is, and on loop-free single-path programs
  // they agree exactly (identical pricing of the same board, cost.h).
  const BoundsResult dij = analyze_bounds(cfg, costs);
  if (dij.has_exit) {
    const auto clamp = [&result](double& lo, double dij_lo) {
      if (dij_lo > lo) {
        lo = dij_lo;
        result.lower_clamped = true;
      }
    };
    clamp(result.insns.lower, static_cast<double>(dij.lower.insns));
    clamp(result.cycles.lower, static_cast<double>(dij.lower.cycles));
    clamp(result.energy_nj.lower, dij.lower_energy_nj);
  }
  const double clock_hz = board::BoardConfig{}.clock_hz;
  result.time_s.lower = result.cycles.lower / clock_hz;
  result.time_s.upper = result.cycles.upper / clock_hz;

  // Witness vectors (informational): rounded op counts from the cycles
  // vertices, metric fields synced to the final intervals.
  const auto fill = [clock_hz](StaticVector& v, const std::vector<Rat>& ops,
                               double cycles, double energy) {
    for (std::size_t i = 0; i < ops.size() && i < v.op_counts.size(); ++i) {
      const double n = ops[i].to_double();
      v.op_counts[i] = n <= 0 ? 0 : static_cast<std::uint64_t>(n + 0.5);
      v.insns += v.op_counts[i];
    }
    v.cycles = static_cast<std::uint64_t>(cycles + 0.5);
    v.energy_nj = energy;
    v.time_s = cycles / clock_hz;
  };
  fill(result.lower, root.opvec[kMin], result.cycles.lower,
       result.energy_nj.lower);
  fill(result.upper, root.opvec[kMax], result.cycles.upper,
       result.energy_nj.upper);

  result.accepted = true;
  return result;
}

std::string render(const IpetResult& r) {
  char buf[192];
  std::string out;
  if (!r.accepted) {
    out += "ipet estimate unavailable: " + r.refusal_detail + " [reason=" +
           to_string(r.refusal) + " block=" + hex(r.refusal_block) + "]\n";
    return out;
  }
  std::snprintf(buf, sizeof buf,
                "ipet insns  [%.0f, %.0f]\n"
                "ipet cycles [%.0f, %.0f]\n",
                r.insns.lower, r.insns.upper, r.cycles.lower, r.cycles.upper);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "ipet time   [%.6g, %.6g] s\n"
                "ipet energy [%.6g, %.6g] nJ\n",
                r.time_s.lower, r.time_s.upper, r.energy_nj.lower,
                r.energy_nj.upper);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "ipet solved %zu function(s), %zu loop(s), %llu pivot(s)%s\n",
                r.functions, r.loops.size(),
                static_cast<unsigned long long>(r.lp_pivots),
                r.lower_clamped ? ", lower clamped to shortest path" : "");
  out += buf;
  for (const IpetLoop& loop : r.loops) {
    const char* kind = loop.source == IpetBoundSource::kAnnotated
                           ? "annotated"
                           : loop.source == IpetBoundSource::kInferred
                                 ? "inferred"
                                 : "profile total";
    std::snprintf(buf, sizeof buf, "loop %s (fn %s, depth %d): bound %llu %s",
                  hex(loop.header).c_str(), hex(loop.function).c_str(),
                  loop.depth, static_cast<unsigned long long>(loop.bound),
                  kind);
    out += buf;
    if (!loop.detail.empty()) out += " (" + loop.detail + ")";
    out += "\n";
  }
  return out;
}

namespace {

void to_json(sim::JsonWriter& w, const IpetInterval& i) {
  w.begin_object().field("lower", i.lower).field("upper", i.upper).end_object();
}

}  // namespace

void to_json(sim::JsonWriter& w, const IpetResult& r) {
  w.begin_object().field("accepted", r.accepted);
  if (!r.accepted) {
    w.field("reason", to_string(r.refusal))
        .field("block", hex(r.refusal_block))
        .field("detail", r.refusal_detail)
        .end_object();
    return;
  }
  to_json(w.key("insns"), r.insns);
  to_json(w.key("cycles"), r.cycles);
  to_json(w.key("time_s"), r.time_s);
  to_json(w.key("energy_nj"), r.energy_nj);
  w.field("functions", r.functions)
      .field("lp_pivots", r.lp_pivots)
      .field("lower_clamped", r.lower_clamped);
  w.key("loops").begin_array();
  for (const IpetLoop& loop : r.loops) {
    const char* kind = loop.source == IpetBoundSource::kAnnotated
                           ? "annotated"
                           : loop.source == IpetBoundSource::kInferred
                                 ? "inferred"
                                 : "total";
    w.begin_object()
        .field("header", hex(loop.header))
        .field("function", hex(loop.function))
        .field("depth", loop.depth)
        .field("source", kind)
        .field("bound", loop.bound);
    if (!loop.detail.empty()) w.field("detail", loop.detail);
    w.end_object();
  }
  w.end_array().end_object();
}

}  // namespace nfp::analyze
