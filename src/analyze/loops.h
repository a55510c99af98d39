// Dominator trees and natural-loop forests over one function's blocks.
//
// The callgraph layer partitions the CFG into functions and hands each one
// here as an entry block plus an intra-procedural successor map (call edges
// replaced by continuation edges). This module answers three questions the
// IPET solver needs:
//
//   - dominators   — iterative idom computation on reverse post-order
//                    (Cooper/Harvey/Kennedy), O(E) per round in practice;
//   - loop forest  — natural loops from back edges (a dominated-by-target
//                    retreating edge), merged per header, with nesting
//                    parents and depths. A retreating DFS edge whose target
//                    does NOT dominate its source makes the region
//                    irreducible; the offending edge is reported so the IPET
//                    refusal can name it;
//   - counted-loop bounds — `mov`/`sethi[+or]` initialisation,
//                    `subcc`/`addcc` strides (combined or separate
//                    `add`/`sub` + compare) in
//                    either direction, exits on any signed Bicc condition
//                    (`bne/be/bg/bge/bl/ble`), with a closed-form trip count
//                    and a provenance string for the report.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analyze/cfg.h"

namespace nfp::analyze {

// Intra-procedural successor map for one function: block start -> successor
// block starts (duplicates allowed when two CFG edges share a target).
using SuccMap = std::map<std::uint32_t, std::vector<std::uint32_t>>;

struct DomTree {
  std::vector<std::uint32_t> rpo;  // reverse post-order, entry first
  std::map<std::uint32_t, std::uint32_t> idom;  // entry maps to itself
  // True when `a` dominates `b` (reflexive). Blocks unknown to the tree
  // (unreachable from the entry) dominate nothing and are dominated by
  // nothing.
  bool dominates(std::uint32_t a, std::uint32_t b) const;
};

DomTree build_domtree(std::uint32_t entry, const SuccMap& succs);

struct NaturalLoop {
  std::uint32_t header = 0;
  std::set<std::uint32_t> body;        // includes header and latches
  std::vector<std::uint32_t> latches;  // back-edge sources
  int parent = -1;  // index of the innermost enclosing loop, -1 = top level
  int depth = 1;    // 1 = outermost
};

struct LoopForest {
  std::vector<NaturalLoop> loops;  // sorted by header address
  bool irreducible = false;
  // A retreating edge whose target does not dominate its source (only
  // meaningful when irreducible).
  std::uint32_t offender_from = 0, offender_to = 0;
};

LoopForest find_natural_loops(std::uint32_t entry, const SuccMap& succs,
                              const DomTree& dom);

struct CountedBound {
  std::uint64_t bound = 0;  // max header executions per loop entry
  std::string detail;       // provenance, e.g. "%g2: 12 step -3 while ne 0"
};

// Registers a block may clobber beyond its own decoded instructions — for
// call couples, the transitive write set of the callee (the callgraph layer
// computes it). Return 0 for non-call blocks.
using ClobberMask = std::function<std::uint32_t(const BasicBlock&)>;

// Widened counted-loop inference for `loop` inside the function made of
// `fblocks`. Returns the bound and its provenance, or nullopt with no
// diagnosis (annotations are the escape hatch). Soundness notes live with
// the implementation.
std::optional<CountedBound> infer_counted_bound(
    const Cfg& cfg, const DomTree& dom, const std::set<std::uint32_t>& fblocks,
    const SuccMap& succs, const std::vector<NaturalLoop>& all_loops,
    const NaturalLoop& loop, const ClobberMask& clobbers);

}  // namespace nfp::analyze
