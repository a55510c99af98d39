// Execution-free IPET (implicit path enumeration) NFP estimation.
//
// The one static bounder: this solver prices every halting execution of the
// interprocedural CFG as a flow problem:
//
//   - the callgraph layer partitions the recovered CFG into functions and
//     orders them callee-first (recursion is a refusal, with the cycle
//     named);
//   - per function, one LP variable per intra-procedural edge plus one exit
//     variable per return/halt block; Kirchhoff conservation rows tie flow
//     together (entry block sources one unit), and every natural loop
//     contributes a bound row — relative bounds (annotations and the widened
//     counted-loop inference) cap header flow per loop entry, absolute
//     totals (profile-derived) cap it outright;
//   - block costs attach to outgoing edges with exact delay-slot/annul and
//     taken/untaken pricing shared with the Dijkstra analyzer (cost.h), and
//     call-continuation edges add the callee's own solved summary, so the
//     analysis is bottom-up compositional;
//   - the LP is solved with the in-tree exact-rational simplex (lp.h):
//     maximizing gives upper bounds, minimizing lower bounds, per metric.
//
// Soundness: cost coefficients are scaled-integer rationals rounded in the
// safe direction (ceil for upper, floor for lower), the final lower bound is
// clamped to the Dijkstra shortest-path lower (both are sound, so their max
// is), and every construct the formulation cannot model exactly is an
// explicit refusal with a machine-parseable reason — never a silent guess.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analyze/bounds.h"
#include "analyze/cfg.h"
#include "board/cost_model.h"

namespace nfp::analyze {

enum class IpetRefusal {
  kNone,
  kLintErrors,       // CFG recovery reported errors
  kNoEntry,          // entry block missing from the image
  kIndirectJump,     // jmpl not shaped like a return
  kCalleeOffImage,   // call target or return site not recovered
  kRecursion,        // call graph has a cycle
  kIrreducible,      // multi-entry loop region
  kUnboundedLoop,    // no annotation, no total, inference failed
  kHaltInCallee,     // static `ta 0` below the entry function
  kReturnFromEntry,  // entry function falls into a `retl`
  kNoExit,           // entry function has no halting block
  kFaultPath,        // reachable block ends at an illegal/off-image word
  kConditionalTrap,  // conditional Ticc that may leave the program
  kDeadEnd,          // block with no successors and no terminator
  kLpInfeasible,     // constraint system admits no flow
  kLpUnbounded,      // a loop escaped every bound row (internal error)
  kLpOverflow,       // exact arithmetic exceeded __int128
  kLpIterLimit,      // simplex pivot cap exhausted
};

// Stable machine-parseable slug, e.g. "unbounded-loop".
const char* to_string(IpetRefusal refusal);

// Where a loop's bound row came from, for the per-loop provenance report.
enum class IpetBoundSource {
  kAnnotated,  // IpetConfig::loop_bounds (relative, per entry)
  kInferred,   // widened counted-loop inference (relative, per entry)
  kTotal,      // IpetConfig::loop_totals (absolute header executions)
};

struct IpetLoop {
  std::uint32_t function = 0;  // owning function's entry address
  std::uint32_t header = 0;
  int depth = 1;
  IpetBoundSource source = IpetBoundSource::kInferred;
  std::uint64_t bound = 0;  // relative bound or absolute total, per source
  std::string detail;       // inference provenance, empty otherwise
};

struct IpetInterval {
  double lower = 0.0;
  double upper = 0.0;
};

struct IpetConfig {
  // Relative loop bounds (max header executions per loop entry), keyed by
  // header block address. Highest precedence.
  std::map<std::uint32_t, std::uint64_t> loop_bounds;
  // Absolute header-execution totals (e.g. from a profiled reference run),
  // keyed by header address. Used when no relative bound applies; applying a
  // whole-program total per invocation over-approximates, which is sound.
  std::map<std::uint32_t, std::uint64_t> loop_totals;
};

struct IpetResult {
  bool accepted = false;
  IpetRefusal refusal = IpetRefusal::kNone;
  std::uint32_t refusal_block = 0;
  std::string refusal_detail;  // human sentence (cycle, offender edge, ...)

  // Bounds on any halting execution admitted by the flow constraints.
  IpetInterval insns, cycles, energy_nj, time_s;

  // Witness vectors from the min-/max-cycles LP vertices (op counts rounded
  // from exact flows); price these with an Estimator for an Eq. 1 comparison.
  StaticVector lower, upper;

  // True when the final lower bound came from the Dijkstra clamp rather
  // than the LP minimum (they agree exactly on loop-free kernels).
  bool lower_clamped = false;

  std::vector<IpetLoop> loops;  // per-loop bound provenance, all functions
  std::size_t functions = 0;
  std::uint64_t lp_pivots = 0;
};

IpetResult analyze_ipet(const Cfg& cfg, const board::CostModel& costs,
                        const IpetConfig& config = {});

// Human-readable report (nfplint --estimate).
std::string render(const IpetResult& result);

// One JSON object, for --json consumers.
void to_json(sim::JsonWriter& w, const IpetResult& result);

}  // namespace nfp::analyze
