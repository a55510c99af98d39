// Architectural state of the simulated SPARC V8 integer unit and FPU.
//
// Register windows are modelled flat (see DESIGN.md): SAVE/RESTORE execute
// as plain adds. This matches the paper's bare-metal, OS-less kernels, whose
// generated code never nests deeper than one window's worth of state.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "isa/insn.h"

namespace nfp::sim {

struct CpuState {
  std::array<std::uint32_t, 32> r{};  // integer registers, r[0] pinned to 0
  std::array<std::uint32_t, 32> f{};  // FPU registers (raw bits)
  std::uint32_t pc = 0;
  std::uint32_t npc = 4;
  std::uint32_t y = 0;

  // Integer condition codes.
  bool icc_n = false, icc_z = false, icc_v = false, icc_c = false;
  // FP condition code: 0 =, 1 <, 2 >, 3 unordered.
  std::uint8_t fcc = 0;

  std::uint64_t instret = 0;
  bool halted = false;
  std::uint32_t exit_code = 0;

  // ---- FP register pair access (double at even register, high word first,
  // matching SPARC big-endian register pairing) ----
  double read_d(std::uint8_t reg) const {
    const std::uint64_t bits =
        (std::uint64_t{f[reg]} << 32) | f[(reg + 1) & 31];
    return std::bit_cast<double>(bits);
  }
  void write_d(std::uint8_t reg, double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    f[reg] = static_cast<std::uint32_t>(bits >> 32);
    f[(reg + 1) & 31] = static_cast<std::uint32_t>(bits);
  }
  float read_s(std::uint8_t reg) const { return std::bit_cast<float>(f[reg]); }
  void write_s(std::uint8_t reg, float value) {
    f[reg] = std::bit_cast<std::uint32_t>(value);
  }

  bool eval_cond(isa::Cond cond) const {
    using isa::Cond;
    switch (cond) {
      case Cond::kN: return false;
      case Cond::kE: return icc_z;
      case Cond::kLe: return icc_z || (icc_n != icc_v);
      case Cond::kL: return icc_n != icc_v;
      case Cond::kLeu: return icc_c || icc_z;
      case Cond::kCs: return icc_c;
      case Cond::kNeg: return icc_n;
      case Cond::kVs: return icc_v;
      case Cond::kA: return true;
      case Cond::kNe: return !icc_z;
      case Cond::kG: return !(icc_z || (icc_n != icc_v));
      case Cond::kGe: return icc_n == icc_v;
      case Cond::kGu: return !(icc_c || icc_z);
      case Cond::kCc: return !icc_c;
      case Cond::kPos: return !icc_n;
      case Cond::kVc: return !icc_v;
    }
    return false;
  }

  bool eval_fcond(isa::FCond cond) const {
    using isa::FCond;
    const std::uint8_t c = fcc;  // 0 =, 1 <, 2 >, 3 unordered
    switch (cond) {
      case FCond::kN: return false;
      case FCond::kNe: return c != 0;
      case FCond::kLg: return c == 1 || c == 2;
      case FCond::kUl: return c == 1 || c == 3;
      case FCond::kL: return c == 1;
      case FCond::kUg: return c == 2 || c == 3;
      case FCond::kG: return c == 2;
      case FCond::kU: return c == 3;
      case FCond::kA: return true;
      case FCond::kE: return c == 0;
      case FCond::kUe: return c == 0 || c == 3;
      case FCond::kGe: return c == 0 || c == 2;
      case FCond::kUge: return c != 1;
      case FCond::kLe: return c == 0 || c == 1;
      case FCond::kUle: return c != 2;
      case FCond::kO: return c != 3;
    }
    return false;
  }
};

// The result of a two-operand FP op (add, sub, mul, div) with a NaN
// operand: rs1's NaN if rs1 is one, else rs2's, quieted — what x86 SSE
// returns for `rs1 op rs2`. IEEE leaves the choice to the implementation,
// and compiled C++ follows whichever operand order the compiler picked for
// a commutative op, so both interpreter paths pass their results through
// here to agree with each other and with the jit. Any other result
// (including the default NaN of an invalid op on numbers) is returned as
// is.
template <class F>
F nan_from_operands(F result, F a, F b) {
  static_assert(std::is_same_v<F, float> || std::is_same_v<F, double>);
  if (!std::isnan(result)) return result;
  using Bits = std::conditional_t<sizeof(F) == 4, std::uint32_t, std::uint64_t>;
  // The quiet bit is the top bit of the fraction.
  constexpr Bits kQuiet = Bits{1} << (std::numeric_limits<F>::digits - 2);
  const auto quiet = [](F x) {
    return std::bit_cast<F>(std::bit_cast<Bits>(x) | kQuiet);
  };
  if (std::isnan(a)) return quiet(a);
  return std::isnan(b) ? quiet(b) : result;
}

}  // namespace nfp::sim
