// Retire hooks: the extension point that turns the functional simulator into
// an ISS with NFP counters (paper §III) or into the measurement board.
//
// The paper's OVP model realises counters "without using callback functions"
// by incrementing internal registers inside each morph function; our
// equivalent is a template hook inlined into the execution switch, so the
// counting build has the same zero-indirection property.
#pragma once

#include <array>
#include <cstdint>

#include "isa/insn.h"

namespace nfp::sim {

// Per-retire detail, filled only for hooks that declare kWantsDetail.
struct RetireInfo {
  std::uint32_t pc = 0;
  std::uint32_t a = 0;       // first source operand (integer value / FP high)
  std::uint32_t b = 0;       // second operand (register or immediate)
  std::uint32_t result = 0;  // integer result (or FP result high word)
  std::uint32_t ea = 0;      // effective address for loads/stores
  std::uint32_t mem_data = 0;  // word loaded/stored (low word for 64-bit)
  bool taken = false;          // control transfers: branch taken
};

// One entry of a superblock's precomputed retire profile: how many times a
// given op retires when the block runs front to back. For a straight-line
// block this is static, so hooks that only consume op counts can retire the
// whole block with one vector-add instead of one call per instruction.
struct BlockOpCount {
  std::uint8_t op = 0;       // isa::Op, stored compactly
  std::uint32_t count = 0;
};

// How an op's cost deviates from its static table entry (the EnergyAnalyzer
// split: a statically-precomputable base corrected by context-dependent
// effects). Tagged per op in the board's CostModel; the cost ledger
// (sim/ledger.h) tallies the integers each kind depends on.
enum class ResidualKind : std::uint8_t {
  kNone,        // cost fully static (modulo global operand-toggle variation)
  kMemory,      // latency/energy depend on the SDRAM row / data-cache state
  kBranch,      // cycles and energy depend on the resolved direction
  kFpVariable,  // FP op whose energy tracks operand bit activity
};

// A hook's verdict on whether a block may run under whole-block dispatch,
// cached on the block. Hooks with per-instruction retire guards (the board
// on a configuration without an FPU or MUL/DIV unit) refuse blocks holding
// a guarded op, so the guard faults at the exact offending instruction.
enum class BlockGuard : std::uint8_t {
  kUnchecked,  // no guarding hook has seen this block yet
  kAdmitted,   // may run whole
  kStepOnly,   // must single-step
};

// Functional-only simulation: no non-functional properties at all.
struct NullHooks {
  static constexpr bool kWantsDetail = false;
  // Batched retirement: the executor may retire a whole cached block with a
  // single on_retire_block call. Hooks that need every instruction's
  // operands (trace) must leave this false and keep stepping; the board
  // batches too, its data-dependent share going through a cost ledger the
  // block handlers update directly (sim/ledger.h).
  static constexpr bool kBatchRetire = true;
  void on_retire(const isa::DecodedInsn&, const RetireInfo&) {}
  void on_retire_block(const BlockOpCount*, std::size_t, std::uint64_t) {}
};

// Instruction-accurate counting (the OVP-with-counters analog): one counter
// per op; category aggregation happens offline so different category maps
// can be evaluated without re-simulating.
struct OpCountHooks {
  static constexpr bool kWantsDetail = false;
  static constexpr bool kBatchRetire = true;

  std::array<std::uint64_t, isa::kOpCount> counts{};

  void on_retire(const isa::DecodedInsn& insn, const RetireInfo&) {
    ++counts[static_cast<std::size_t>(insn.op)];
  }

  // Batched retirement of a whole straight-line block: the per-category
  // counts of such a block are statically known, so they arrive as one
  // precomputed count vector (paper §III: counters in plain registers, no
  // per-instruction callback).
  void on_retire_block(const BlockOpCount* ops, std::size_t n, std::uint64_t) {
    for (std::size_t i = 0; i < n; ++i) counts[ops[i].op] += ops[i].count;
  }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto c : counts) sum += c;
    return sum;
  }
};

}  // namespace nfp::sim
