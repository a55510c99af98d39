// A board stand driven slice by slice — a platform and the BoardHooks the
// board attaches — and a comparison of two stands on everything a dispatch
// mode could get wrong: where the cpu stopped, its registers and dirty RAM,
// and every accumulator of the cost ledger BoardHooks::export_state()
// returns.
#pragma once

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "asmkit/program.h"
#include "board/config.h"
#include "board/cost_model.h"
#include "board/hooks.h"
#include "sim/digest.h"
#include "sim/executor.h"
#include "sim/platform.h"

namespace nfp::test {

// Variation on (every ledger tally is live), meter noise off: the stands
// compare ground truth, not the bench front end.
inline board::BoardConfig quiet_meter_config() {
  board::BoardConfig cfg;
  cfg.enable_meter_noise = false;
  return cfg;
}

struct BoardStand {
  explicit BoardStand(const asmkit::Program& p,
                      const board::BoardConfig& c = quiet_meter_config())
      : cfg(c), hooks(cfg, cost) {
    platform.load(p);
  }
  // Runs `budget` more instructions; returns the fault message, if any.
  std::string run(std::uint64_t budget, sim::Dispatch dispatch) {
    try {
      sim::run_platform(platform, hooks, budget, dispatch);
    } catch (const sim::SimError& e) {
      return e.what();
    }
    return {};
  }

  board::BoardConfig cfg;
  board::CostModel cost;
  sim::Platform platform;
  board::BoardHooks hooks;
};

// Names the first difference between two stands.
inline ::testing::AssertionResult same_state(BoardStand& want,
                                             BoardStand& got) {
  const sim::CpuState& ca = want.platform.cpu();
  const sim::CpuState& cb = got.platform.cpu();
  if (ca.instret != cb.instret || ca.pc != cb.pc || ca.npc != cb.npc) {
    return ::testing::AssertionFailure()
           << "cpu stopped at instret " << cb.instret << " pc " << cb.pc
           << ", want " << ca.instret << " pc " << ca.pc;
  }
  auto fail = [&](const char* what) {
    return ::testing::AssertionFailure()
           << what << " differs at instret " << ca.instret;
  };
  if (sim::arch_digest(ca, want.platform.bus()) !=
      sim::arch_digest(cb, got.platform.bus())) {
    return fail("architectural state (registers, fcc or RAM)");
  }
  const sim::CostLedger& a = want.hooks.export_state();
  const sim::CostLedger& b = got.hooks.export_state();
  if (a.prev_a != b.prev_a || a.prev_b != b.prev_b) {
    return fail("operand history");
  }
  if (a.prev_addr != b.prev_addr) return fail("address history");
  if (a.open_row != b.open_row) return fail("open row");
  const auto ta = a.tallies();
  const auto tb = b.tallies();
  for (std::size_t t = 0; t < ta.size(); ++t) {
    if (*ta[t] != *tb[t]) return fail("a tally array");
  }
  if (a.tags != b.tags) return fail("cache tags");
  return ::testing::AssertionSuccess();
}

}  // namespace nfp::test
