// Configuration of the simulated measurement board (the FPGA + LEON3 + power
// meter stand-in). The defaults are tuned so that calibration reproduces the
// paper's Table I values at a 50 MHz clock.
#pragma once

#include <cstdint>

namespace nfp::board {

struct BoardConfig {
  // Hardware configuration knobs (the paper's design space).
  bool has_fpu = true;
  bool has_hw_muldiv = true;  // LEON3 MUL/DIV units are synthesis options
  double clock_hz = 50.0e6;

  // Context-dependent behaviour of the "real" hardware. These are the
  // mechanisms that make constant-per-category estimation imperfect:
  // operand/address toggling modulates per-instruction energy, and the
  // SDRAM open-row state modulates load/store latency.
  bool enable_variation = true;
  double data_energy_amplitude = 0.30;  // +-15% swing around the base energy

  // Power-meter and clock()-granularity measurement imperfections.
  bool enable_meter_noise = true;
  double meter_noise_sigma = 0.004;  // multiplicative gaussian on energy
  double clock_ticks_per_s = 1000.0;  // time quantisation of the time base
  std::uint64_t seed = 0x5EED2015u;

  // Future-work extension (paper §VII): direct-mapped data cache.
  bool enable_cache = false;
  std::uint32_t cache_lines = 256;
  std::uint32_t cache_line_bytes = 32;

  // Snapshot restore refuses state saved under a different configuration
  // (board/board.cpp): every field participates in the fingerprint.
  friend bool operator==(const BoardConfig&, const BoardConfig&) = default;
};

}  // namespace nfp::board
