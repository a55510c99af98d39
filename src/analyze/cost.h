// Shared block-pricing helpers for the static analyzers (bounds, ipet).
//
// A basic block's cost depends on how it is left: the CTI pays `cycles` on
// the taken path and `cycles_alt` on the untaken one, and the delay slot
// retires only on edges that include it (annul semantics). Keeping these
// rules in one place guarantees the Dijkstra lower bounds and the IPET flow
// solver price identical paths identically — the bench asserts exact
// equality between them on loop-free kernels.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "analyze/cfg.h"
#include "board/cost_model.h"
#include "nfp/scheme.h"

namespace nfp::analyze {

inline bool writes_icc(isa::Op op) {
  using isa::Op;
  switch (op) {
    case Op::kAddcc: case Op::kAddxcc: case Op::kSubcc: case Op::kSubxcc:
    case Op::kAndcc: case Op::kAndncc: case Op::kOrcc: case Op::kOrncc:
    case Op::kXorcc: case Op::kXnorcc: case Op::kUmulcc: case Op::kSmulcc:
    case Op::kUdivcc: case Op::kSdivcc:
      return true;
    default:
      return false;
  }
}

inline bool writes_int_reg(isa::Op op) {
  using isa::Op;
  if (isa::is_fpu(op) || isa::is_store(op)) return false;
  switch (op) {
    case Op::kInvalid: case Op::kNop: case Op::kBicc: case Op::kFbfcc:
    case Op::kTicc: case Op::kWry: case Op::kLdf: case Op::kLddf:
      return false;
    default:
      return true;  // ALU, sethi, integer loads, jmpl, call, rdy
  }
}

inline std::uint8_t written_reg(const isa::DecodedInsn& d) {
  return d.op == isa::Op::kCall ? isa::kRegO7 : d.rd;
}

inline std::string hex(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", value);
  return buf;
}

// Index of the control-transfer instruction inside a block's insn list (the
// delay slot, when present, follows it).
inline std::size_t cti_index(const BasicBlock& b) {
  return b.insns.size() - 1 - (b.has_slot ? 1 : 0);
}

// How the block is left, for branch cycle selection.
enum class Exit { kTaken, kUntaken, kTerminal, kWorst };

struct BlockCost {
  double cycles = 0.0;
  double energy_nj = 0.0;
};

// Cost of executing `b` once and leaving it the given way. `include_slot`
// matters only for CTI couples (annul semantics).
inline BlockCost block_cost(const BasicBlock& b, const board::CostModel& costs,
                            Exit exit, bool include_slot) {
  BlockCost out;
  const std::size_t cti = b.has_cti ? cti_index(b) : b.insns.size();
  for (std::size_t i = 0; i < b.insns.size(); ++i) {
    if (b.has_slot && i == b.insns.size() - 1 && !include_slot) continue;
    const board::OpCost& c = costs.of(b.insns[i].op);
    std::uint32_t cycles = c.cycles;
    if (i == cti) {
      if (exit == Exit::kUntaken) cycles = c.cycles_alt;
      if (exit == Exit::kWorst) cycles = std::max(c.cycles, c.cycles_alt);
    }
    out.cycles += cycles;
    out.energy_nj += c.energy_nj;
  }
  return out;
}

inline void add_counts(model::OpCounts& acc, const BasicBlock& b,
                       bool include_slot, std::uint64_t times = 1) {
  for (std::size_t i = 0; i < b.insns.size(); ++i) {
    if (b.has_slot && i == b.insns.size() - 1 && !include_slot) continue;
    acc[static_cast<std::size_t>(b.insns[i].op)] += times;
  }
}

// Directional pricing against the board's dynamic residuals (the cost
// ledger fold in board/hooks.h): SDRAM row misses add cycles and
// energy to memory ops, untaken control transfers retire at 0.8x base energy
// without redirecting the fetch stream, and operand toggling modulates every
// op's dynamic energy share by +-amplitude/2. kLower/kUpper bracket every
// per-op cost the board can charge, so a static interval priced this way
// contains the ground truth of a board configured with the same knobs.
enum class Dir { kLower, kUpper };

// The BoardConfig fields the envelope depends on (defaults match the default
// board: variation on, no data cache).
struct CostEnvelope {
  bool variation = true;    // BoardConfig::enable_variation
  double amplitude = 0.30;  // BoardConfig::data_energy_amplitude
  bool cache = false;       // BoardConfig::enable_cache (loads only)
};

inline BlockCost block_cost_dir(const BasicBlock& b,
                                const board::CostModel& costs, Exit exit,
                                bool include_slot, Dir dir,
                                const CostEnvelope& env = {}) {
  BlockCost out;
  const std::size_t cti = b.has_cti ? cti_index(b) : b.insns.size();
  const double half = env.variation ? env.amplitude * 0.5 : 0.0;
  for (std::size_t i = 0; i < b.insns.size(); ++i) {
    if (b.has_slot && i == b.insns.size() - 1 && !include_slot) continue;
    const isa::Op op = b.insns[i].op;
    const board::OpCost& c = costs.of(op);
    double cycles = c.cycles;
    double energy = c.energy_nj;
    switch (c.kind) {
      case sim::ResidualKind::kMemory:
        if (dir == Dir::kUpper) {
          cycles += costs.row_miss_cycles();
          energy = (energy + costs.row_miss_energy_nj()) * (1.0 + half);
        } else {
          if (env.cache && isa::is_load(op)) {
            cycles = std::min<double>(cycles, costs.cache_hit_cycles());
            energy = std::min(energy, costs.cache_hit_energy_nj());
          }
          energy *= 1.0 - half;
        }
        break;
      case sim::ResidualKind::kBranch:
        // Exit-resolved and exact, not an envelope: the direction is known
        // per flow variable, and taken/untaken costs have no spread.
        if (i == cti) {
          if (exit == Exit::kUntaken) {
            cycles = c.cycles_alt;
            energy *= 0.8;
          } else if (exit == Exit::kWorst) {
            cycles = std::max(c.cycles, c.cycles_alt);
            if (dir == Dir::kLower) energy *= 0.8;
          }
        }
        break;
      default:  // kNone / kFpVariable: operand-toggle modulation only
        energy = c.leakage_nj +
                 (energy - c.leakage_nj) *
                     (dir == Dir::kUpper ? 1.0 + half : 1.0 - half);
        break;
    }
    out.cycles += cycles;
    out.energy_nj += energy;
  }
  return out;
}

inline Exit edge_exit(const CfgEdge& e) {
  switch (e.kind) {
    case CfgEdge::Kind::kUntaken: return Exit::kUntaken;
    default: return Exit::kTaken;  // taken, call, fall-through (base cycles)
  }
}

// A block where execution can leave the program: static halt, fault,
// indirect jmpl, a dead end, or a conditional trap that may fire.
inline bool is_exit(const BasicBlock& b) {
  return b.halt || b.faults || b.indirect || b.edges.empty() ||
         (b.has_cti && b.cti_op == isa::Op::kTicc);
}

}  // namespace nfp::analyze
