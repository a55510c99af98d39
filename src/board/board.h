// The measurement board: functional execution plus ground-truth cycle and
// energy accounting, and a power-meter front end with realistic measurement
// imperfections. This module plays the role of the paper's Terasic DE2-115
// FPGA + LEON3 + external power meter test stand.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "asmkit/program.h"
#include "board/config.h"
#include "board/cost_model.h"
#include "board/hooks.h"
#include "sim/executor.h"
#include "sim/platform.h"

namespace nfp::board {

// What the experimenter reads off the bench: energy from the power meter
// (noisy) and elapsed time from the target's clock (tick-quantised).
struct Measurement {
  double energy_nj = 0.0;
  double time_s = 0.0;
};

class Board {
 public:
  explicit Board(BoardConfig cfg = {});

  void load(const asmkit::Program& program);
  // Runs under the chosen dispatch mode. Every mode tallies the same
  // integer cost ledger, so cycles, energy, and stats are bit-for-bit
  // identical across all modes (see board/hooks.h). The
  // morph cache is attached in every mode, so stores into the code range
  // re-decode the image even when stepping.
  sim::RunResult run(std::uint64_t max_insns = kDefaultMaxInsns,
                     sim::Dispatch dispatch = sim::Dispatch::kBlock);
  // Executes a single instruction (debug monitor support).
  void step();

  // Ground truth (inaccessible on real hardware; used by tests and by the
  // Fig. 1 rungs of bench_paper).
  std::uint64_t cycles() const { return hooks_.cycles(); }
  double true_time_s() const {
    return static_cast<double>(cycles()) / cfg_.clock_hz;
  }
  double true_energy_nj() const { return hooks_.energy_nj(); }
  BoardStats stats() const { return hooks_.stats(); }
  // The versioned PMU-style counter export (board/events.h): bit-identical
  // across dispatch modes and preserved by snapshot/restore.
  EventCounters events() const { return hooks_.events(); }
  // Per-op retire counts from the board run (estimation-scheme features).
  const std::array<std::uint64_t, isa::kOpCount>& op_counts() const {
    return hooks_.op_counts();
  }

  // Bench measurement: ground truth seen through the power meter and the
  // clock's tick granularity. `tag` identifies the kernel so repeated
  // measurements of the same kernel are reproducible but distinct kernels
  // draw independent noise.
  Measurement measure(std::string_view tag) const;

  // Versioned snapshot of the whole stand: platform state plus the board's
  // configuration fingerprint and accumulator state (the cost ledger with
  // its SDRAM open row, cache tags and toggle history). Restore refuses
  // snapshots taken under a different BoardConfig (kConfigMismatch) and is
  // all-or-nothing; a resumed run produces bit-identical cycles, energy,
  // stats and events in every dispatch mode (see sim/state_io.h).
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in);

  const BoardConfig& config() const { return cfg_; }
  sim::Platform& platform() { return platform_; }
  sim::Bus& bus() { return platform_.bus(); }
  sim::CpuState& cpu() { return platform_.cpu(); }

  static constexpr std::uint64_t kDefaultMaxInsns = 20'000'000'000ull;

 private:
  BoardConfig cfg_;
  CostModel cost_;
  sim::Platform platform_;
  // One object for the board's lifetime, reset or imported in place: the
  // jit drops its compiled code when the ledger it is bound to moves.
  BoardHooks hooks_;
};

}  // namespace nfp::board
