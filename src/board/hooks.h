// Retire hooks implementing the board's non-functional ground truth:
// per-instruction cycles and energy with context-dependent effects
// (SDRAM open-row state, branch direction, operand/address toggling,
// optional data cache).
//
// All accounting state is an integer cost ledger (sim/ledger.h): per-op
// retire counts plus per-op tallies of toggle popcounts, row misses, cache
// hits and untaken branches. Every dispatch mode updates it directly — the
// step path through on_retire(), morphed blocks through their handlers, the
// jit through inline code — and cycles(), energy_nj(), stats() and events()
// fold it when read. The folds depend only on the integers, so all of them
// are bit-for-bit identical across Dispatch::kStep, kBlock and kJit and
// across snapshot/restore.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "board/config.h"
#include "board/cost_model.h"
#include "board/events.h"
#include "isa/insn.h"
#include "sim/block_cache.h"
#include "sim/bus.h"
#include "sim/hooks.h"
#include "sim/ledger.h"

namespace nfp::board {

struct BoardStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branches_taken = 0;
  std::uint64_t branches_untaken = 0;
  // Extra cycles spent on SDRAM row opens (row_misses * row_miss_cycles).
  std::uint64_t stall_cycles = 0;

  friend bool operator==(const BoardStats&, const BoardStats&) = default;
};

// The accumulator state a snapshot carries (board/board.cpp save/restore):
// everything on which future accounting depends — the cost ledger's tallies,
// SDRAM open row, cache tags and toggle history, and the switching-activity
// LFSR. The ledger's configuration fields are not state (the restoring
// board's own configuration supplies them).
struct BoardHooksState {
  sim::CostLedger ledger;
  std::uint64_t activity_lfsr = 0;
  std::uint64_t activity = 0;
};

class BoardHooks {
 public:
  static constexpr bool kWantsDetail = true;
  // Whole blocks retire as one count add; their context-dependent share
  // lands in the ledger from the block handlers (and from emitted code under
  // kJit), in program order, with the same operands as on_retire().
  static constexpr bool kBatchRetire = true;

  BoardHooks(const BoardConfig& cfg, const CostModel& cost)
      : cfg_(cfg), cost_(cost) {
    configure_ledger();
  }

  void on_retire(const isa::DecodedInsn& d, const sim::RetireInfo& info) {
    if (!cfg_.has_fpu && uses_fpu(d.op)) {
      throw sim::SimError(
          "board error: FPU instruction executed on an FPU-less "
          "configuration (compile the kernel with soft-float)");
    }
    if (!cfg_.has_hw_muldiv && uses_muldiv(d.op)) {
      throw sim::SimError(
          "board error: MUL/DIV instruction executed on a configuration "
          "without the hardware units (compile with soft-muldiv)");
    }
    // Fold the RetireInfo into the same {x, y} pair the block handlers
    // tally.
    std::uint32_t x, y;
    switch (cost_.of(d.op).kind) {
      case sim::ResidualKind::kMemory:
        x = info.ea;
        y = info.mem_data;
        break;
      case sim::ResidualKind::kBranch:
        x = info.taken ? 1u : 0u;
        y = 0;
        break;
      default:
        x = info.a;
        y = info.b;
        break;
    }
    const sim::LedgerOutcome outcome = ledger_.retire(d.op, x, y);
    ++ledger_.counts[static_cast<std::size_t>(d.op)];
    if (cfg_.fidelity == Fidelity::kCycleStepped) {
      const std::uint64_t cyc = cycles_of(d.op, outcome);
      advance_activity(cyc);
      advanced_ += cyc;
    }
  }

  // Whole-block dispatch guard: blocks holding an op whose retire guard
  // must fault at the exact instruction (the ledger's step_only ops) single-
  // step. The verdict is cached on the block.
  bool admit_block(sim::Block& block) const {
    if (cfg_.has_fpu && cfg_.has_hw_muldiv) return true;
    if (block.guard == sim::BlockGuard::kUnchecked) {
      block.guard = sim::BlockGuard::kAdmitted;
      for (const sim::BlockOpCount& p : block.profile) {
        if (ledger_.step_only[p.op]) block.guard = sim::BlockGuard::kStepOnly;
      }
    }
    return block.guard == sim::BlockGuard::kAdmitted;
  }

  void on_retire_block(const sim::BlockOpCount* ops, std::size_t n,
                       std::uint64_t) {
    for (std::size_t i = 0; i < n; ++i) {
      ledger_.counts[ops[i].op] += ops[i].count;
    }
    settle();
  }

  // The ledger the block handlers and emitted code tally into.
  sim::CostLedger* ledger() { return &ledger_; }

  // Brings the cycle-stepped activity tracker up to the cycles retired so
  // far (called after every block and native run). The tracker is a pure
  // function of how many cycles it has advanced, so one catch-up equals the
  // per-op advances exactly.
  void settle() {
    if (cfg_.fidelity == Fidelity::kCycleStepped) {
      const std::uint64_t now = cycles();
      advance_activity(now - advanced_);
      advanced_ = now;
    }
  }

  // Cycles folded from the ledger: every retire at its base cycles, except
  // row misses (plus the row-open stall), cache hits (the hit latency) and
  // untaken branches (the fall-through latency).
  std::uint64_t cycles() const {
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      const std::uint64_t n = ledger_.counts[i];
      if (n == 0) continue;
      const OpCost& oc = cost_.of(static_cast<isa::Op>(i));
      const std::uint64_t miss = ledger_.row_misses[i];
      const std::uint64_t hit = ledger_.cache_hits[i];
      const std::uint64_t untaken = ledger_.untaken[i];
      c += (n - miss - hit - untaken) * oc.cycles +
           miss * (oc.cycles + cost_.row_miss_cycles()) +
           hit * cost_.cache_hit_cycles() + untaken * oc.cycles_alt;
    }
    return c;
  }

  // Energy folded from the ledger, summed in ascending op order. A retire
  // costs its base energy E (the cache-hit energy on a hit, plus the
  // row-open energy on a miss); with variation on, the dynamic share of it
  // is scaled by 1 + amplitude * (toggles / 64 - 1/2), which is linear in
  // the toggle popcount — so per-op count and popcount sums are enough.
  // Memory ops scale all of it, other ops only E - leakage; branches never
  // vary, and an untaken one costs 0.8 E.
  double energy_nj() const {
    const double amp = cfg_.enable_variation ? cfg_.data_energy_amplitude : 0.0;
    const double flat = 1.0 - 0.5 * amp;
    const double per_toggle = amp / 64.0;
    const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
    double e = 0.0;
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      const std::uint64_t n = ledger_.counts[i];
      if (n == 0) continue;
      const OpCost& oc = cost_.of(static_cast<isa::Op>(i));
      switch (ledger_.kind[i]) {
        case sim::ResidualKind::kMemory: {
          const double hit_e = cost_.cache_hit_energy_nj();
          const double miss_e = cost_.row_miss_energy_nj();
          const std::uint64_t hits = ledger_.cache_hits[i];
          const std::uint64_t hit_t = ledger_.cache_hit_toggles[i];
          e += flat * (f(n - hits) * oc.energy_nj + f(hits) * hit_e +
                       f(ledger_.row_misses[i]) * miss_e) +
               per_toggle * (f(ledger_.toggles[i] - hit_t) * oc.energy_nj +
                             f(hit_t) * hit_e +
                             f(ledger_.row_miss_toggles[i]) * miss_e);
          break;
        }
        case sim::ResidualKind::kBranch: {
          const std::uint64_t untaken = ledger_.untaken[i];
          e += f(n - untaken) * oc.energy_nj +
               f(untaken) * (oc.energy_nj * 0.8);
          break;
        }
        default:
          if (cfg_.enable_variation) {
            const double dyn = oc.energy_nj - oc.leakage_nj;
            e += f(n) * oc.leakage_nj +
                 dyn * (flat * f(n) + per_toggle * f(ledger_.toggles[i]));
          } else {
            e += f(n) * oc.energy_nj;
          }
          break;
      }
    }
    return e;
  }

  BoardStats stats() const {
    BoardStats s;
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      const std::uint64_t n = ledger_.counts[i];
      switch (ledger_.kind[i]) {
        case sim::ResidualKind::kMemory:
          if (isa::is_load(static_cast<isa::Op>(i))) {
            s.loads += n;
            if (ledger_.has_cache()) {
              s.cache_hits += ledger_.cache_hits[i];
              s.cache_misses += n - ledger_.cache_hits[i];
            }
          } else {
            s.stores += n;
          }
          s.row_misses += ledger_.row_misses[i];
          break;
        case sim::ResidualKind::kBranch:
          s.branches_taken += n - ledger_.untaken[i];
          s.branches_untaken += ledger_.untaken[i];
          break;
        default:
          break;
      }
    }
    s.stall_cycles = s.row_misses * cost_.row_miss_cycles();
    return s;
  }

  std::uint64_t switching_activity() const { return activity_; }

  // Per-op retire counts. Exposed so calibration can derive estimation-
  // scheme feature vectors from the board run itself — the streams are
  // proven identical to the ISS counters.
  const std::array<std::uint64_t, isa::kOpCount>& op_counts() const {
    return ledger_.counts;
  }

  // The PMU-style counter export (board/events.h): a view of the ledger.
  EventCounters events() const {
    const BoardStats s = stats();
    EventCounters ev;
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      const auto op = static_cast<isa::Op>(i);
      ev[Event::kRetired] += ledger_.counts[i];
      if (isa::is_fpu(op)) ev[Event::kFpuOps] += ledger_.counts[i];
      if (isa::is_muldiv(op)) ev[Event::kMulDivOps] += ledger_.counts[i];
    }
    ev[Event::kLoads] = s.loads;
    ev[Event::kStores] = s.stores;
    ev[Event::kRowMisses] = s.row_misses;
    ev[Event::kCacheHits] = s.cache_hits;
    ev[Event::kCacheMisses] = s.cache_misses;
    ev[Event::kBranchesTaken] = s.branches_taken;
    ev[Event::kBranchesUntaken] = s.branches_untaken;
    ev[Event::kStallCycles] = s.stall_cycles;
    return ev;
  }

  // ---- snapshot support (sim/state_io.h, board/board.cpp) -----------------
  BoardHooksState export_state() const {
    return BoardHooksState{ledger_, activity_lfsr_, activity_};
  }

  // Caller (Board::restore_state) has already validated s.ledger.tags
  // against the configuration, so this cannot fail.
  void import_state(const BoardHooksState& s) {
    ledger_ = s.ledger;
    configure_ledger();
    activity_lfsr_ = s.activity_lfsr;
    activity_ = s.activity;
    advanced_ = cycles();
  }

 private:
  static bool uses_fpu(isa::Op op) {
    return isa::is_fpu(op) || op == isa::Op::kLdf || op == isa::Op::kLddf ||
           op == isa::Op::kStf || op == isa::Op::kStdf ||
           op == isa::Op::kFbfcc;
  }

  static bool uses_muldiv(isa::Op op) {
    switch (op) {
      case isa::Op::kUmul: case isa::Op::kUmulcc: case isa::Op::kSmul:
      case isa::Op::kSmulcc: case isa::Op::kUdiv: case isa::Op::kUdivcc:
      case isa::Op::kSdiv: case isa::Op::kSdivcc:
        return true;
      default:
        return false;
    }
  }

  // Copies the configuration the ledger's tallies depend on; a fresh
  // ledger also gets its (all-invalid) cache tags here.
  void configure_ledger() {
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      const auto op = static_cast<isa::Op>(i);
      ledger_.kind[i] = cost_.of(op).kind;
      ledger_.step_only[i] = (!cfg_.has_fpu && uses_fpu(op)) ||
                             (!cfg_.has_hw_muldiv && uses_muldiv(op));
    }
    ledger_.variation = cfg_.enable_variation;
    ledger_.row_bits = cost_.row_bits();
    ledger_.cache_line_bytes = cfg_.cache_line_bytes;
    if (cfg_.enable_cache && ledger_.tags.empty()) {
      ledger_.tags.assign(cfg_.cache_lines, sim::CostLedger::kInvalidTag);
    }
  }

  std::uint64_t cycles_of(isa::Op op, sim::LedgerOutcome outcome) const {
    const OpCost& oc = cost_.of(op);
    switch (outcome) {
      case sim::LedgerOutcome::kRowMiss:
        return oc.cycles + cost_.row_miss_cycles();
      case sim::LedgerOutcome::kCacheHit:
        return cost_.cache_hit_cycles();
      case sim::LedgerOutcome::kUntaken:
        return oc.cycles_alt;
      default:
        return oc.cycles;
    }
  }

  // Step the microarchitectural activity tracker cycle by cycle, as a
  // hardware-description-level simulator would. The totals are the same
  // as the approximately-timed path; only the simulation cost differs.
  void advance_activity(std::uint64_t cycles) {
    for (std::uint64_t i = 0; i < cycles; ++i) {
      activity_lfsr_ ^= activity_lfsr_ << 13;
      activity_lfsr_ ^= activity_lfsr_ >> 7;
      activity_lfsr_ ^= activity_lfsr_ << 17;
      activity_ += std::popcount(activity_lfsr_);
    }
  }

  const BoardConfig& cfg_;
  const CostModel& cost_;

  sim::CostLedger ledger_;
  std::uint64_t activity_lfsr_ = 0x2545F4914F6CDD1Dull;
  std::uint64_t activity_ = 0;
  std::uint64_t advanced_ = 0;  // cycles the activity tracker has covered
};

}  // namespace nfp::board
