// Integer cost ledger: the context-dependent share of the board's cost
// model, kept as per-op integer tallies instead of a running energy sum.
//
// Every dynamic cost effect of the modelled hardware reduces to integers
// counted per op: operand/address toggle popcounts, SDRAM row misses,
// data-cache hits, and untaken branches. The ledger only ever increments
// those tallies; the board folds them into nanojoules and cycles when they
// are read (board/hooks.h). Integer addition does not depend on order, so
// any dispatch mode that retires the same instructions with the same
// operands produces the same ledger, bit for bit, without replaying
// anything — the step path, the morph handlers and the jit's inline
// accounting all update it directly.
//
// The accumulator fields sit at fixed offsets that the jit's emitted code
// addresses (pinned by static_asserts in sim/jit.cpp).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "isa/insn.h"
#include "sim/hooks.h"

namespace nfp::sim {

struct CostLedger {
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;
  using Tally = std::array<std::uint64_t, isa::kOpCount>;

  // ---- accumulators -------------------------------------------------------
  // Toggle history: the previous operand pair of an operand-toggle op and
  // the previous address of a memory op.
  std::uint32_t prev_a = 0;
  std::uint32_t prev_b = 0;
  std::uint32_t prev_addr = 0;
  std::uint32_t open_row = kNoRow;  // SDRAM row currently open
  Tally counts{};            // retired instructions
  Tally toggles{};           // toggle popcount sum over all retires
  Tally row_misses{};        // memory ops that opened a new row
  Tally row_miss_toggles{};  // ... and their toggle popcount sum
  Tally cache_hits{};        // loads served by the data cache
  Tally cache_hit_toggles{}; // ... and their toggle popcount sum
  Tally untaken{};           // branches that fell through
  std::vector<std::uint32_t> tags;  // data-cache line tags (empty: no cache)

  // ---- configuration (fixed for the ledger's lifetime) --------------------
  std::array<ResidualKind, isa::kOpCount> kind{};
  // Ops whose retire guard faults (the board's FPU or MUL/DIV ops on a
  // configuration without the unit): they must retire through the step
  // path. Blocks holding one single-step, and the jit never folds one into
  // a delay slot.
  std::array<bool, isa::kOpCount> step_only{};
  bool variation = false;  // operand/address toggles are tallied
  std::uint32_t row_bits = 10;
  std::uint32_t cache_line_bytes = 32;

  static constexpr std::uint32_t kInvalidTag = 0xFFFFFFFFu;

  bool has_cache() const { return !tags.empty(); }

  // Every tally array, in the order snapshots serialize them.
  std::array<Tally*, 7> tallies() {
    return {&counts,     &toggles,           &row_misses, &row_miss_toggles,
            &cache_hits, &cache_hit_toggles, &untaken};
  }
  std::array<const Tally*, 7> tallies() const {
    return {&counts,     &toggles,           &row_misses, &row_miss_toggles,
            &cache_hits, &cache_hit_toggles, &untaken};
  }

  // The invariants retire() keeps and the board's folds rely on (they
  // subtract tallies from counts and toggles): per op, row misses, cache
  // hits and untaken branches are disjoint subsets of the retires; the
  // toggle sums of the misses and hits are disjoint parts of the op's
  // toggle sum; and no retire toggles more than 64 bits. Used to refuse a
  // corrupt snapshot.
  bool consistent() const {
    const auto fits = [](std::uint64_t toggles, std::uint64_t n) {
      return n > UINT64_MAX / 64 || toggles <= 64 * n;
    };
    for (std::size_t i = 0; i < isa::kOpCount; ++i) {
      const std::uint64_t n = counts[i];
      if (row_misses[i] > n || cache_hits[i] > n - row_misses[i] ||
          untaken[i] > n - row_misses[i] - cache_hits[i] ||
          row_miss_toggles[i] > toggles[i] ||
          cache_hit_toggles[i] > toggles[i] - row_miss_toggles[i] ||
          !fits(toggles[i], n) || !fits(row_miss_toggles[i], row_misses[i]) ||
          !fits(cache_hit_toggles[i], cache_hits[i])) {
        return false;
      }
    }
    return true;
  }

  // Tallies the dynamic share of one retired instruction (its retire count
  // is the caller's: block paths batch it). Operands follow the retire
  // record of the op's kind: memory ops pass {effective address, data
  // word}, control transfers {taken, 0}, everything else {a, b}.
  void retire(isa::Op op, std::uint32_t x, std::uint32_t y) {
    const auto i = static_cast<std::size_t>(op);
    switch (kind[i]) {
      case ResidualKind::kMemory: {
        std::uint64_t t = 0;
        if (variation) {
          t = static_cast<std::uint64_t>(std::popcount(x ^ prev_addr) +
                                         std::popcount(y));
          toggles[i] += t;
        }
        prev_addr = x;
        if (has_cache() && isa::is_load(op)) {
          const std::uint32_t line = x / cache_line_bytes;
          std::uint32_t& tag = tags[line % tags.size()];
          if (tag == line) {
            ++cache_hits[i];
            cache_hit_toggles[i] += t;
            return;
          }
          tag = line;
        }
        const std::uint32_t row = x >> row_bits;
        if (row != open_row) {
          open_row = row;
          ++row_misses[i];
          row_miss_toggles[i] += t;
        }
        return;
      }
      case ResidualKind::kBranch:
        if (x == 0) ++untaken[i];
        return;
      default:  // kNone / kFpVariable: operand-toggle variation only
        if (variation) {
          toggles[i] += static_cast<std::uint64_t>(
              std::popcount(x ^ prev_a) + std::popcount(y ^ prev_b));
          prev_a = x;
          prev_b = y;
        }
        return;
    }
  }
};

}  // namespace nfp::sim
