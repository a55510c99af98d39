#include "board/board.h"

#include <gtest/gtest.h>

#include "asmkit/assembler.h"
#include "board/area.h"
#include "sim/memmap.h"
#include "support/json_check.h"

namespace nfp::board {
namespace {

asmkit::Program prog(const std::string& src) {
  return asmkit::assemble(src, sim::kTextBase);
}

BoardConfig quiet_config() {
  BoardConfig cfg;
  cfg.enable_variation = false;
  cfg.enable_meter_noise = false;
  return cfg;
}

TEST(Board, CycleAccountingIsDeterministic) {
  const auto p = prog(R"(
_start: mov 100, %l0
loop:   subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
)");
  Board a(quiet_config());
  a.load(p);
  ASSERT_TRUE(a.run().halted);
  Board b(quiet_config());
  b.load(p);
  ASSERT_TRUE(b.run().halted);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.true_energy_nj(), b.true_energy_nj());
  EXPECT_GT(a.cycles(), 0u);
}

TEST(Board, NoiseFreeCostsMatchTheCostModel) {
  // 10 adds and a halt: cycles = 10*2 (add) + mov(2) + trap(14).
  Board brd(quiet_config());
  brd.load(prog(R"(
_start: add %g1, 1, %g1
        add %g1, 1, %g1
        add %g1, 1, %g1
        add %g1, 1, %g1
        add %g1, 1, %g1
        add %g1, 1, %g1
        add %g1, 1, %g1
        add %g1, 1, %g1
        add %g1, 1, %g1
        add %g1, 1, %g1
        mov 0, %o0
        ta 0
)"));
  ASSERT_TRUE(brd.run().halted);
  const CostModel cost;
  const auto add_cost = cost.of(isa::Op::kAdd);
  const auto or_cost = cost.of(isa::Op::kOr);
  const auto ta_cost = cost.of(isa::Op::kTicc);
  EXPECT_EQ(brd.cycles(),
            10 * add_cost.cycles + or_cost.cycles + ta_cost.cycles);
  EXPECT_DOUBLE_EQ(brd.true_energy_nj(), 10 * add_cost.energy_nj +
                                             or_cost.energy_nj +
                                             ta_cost.energy_nj);
}

TEST(Board, BranchDirectionChangesCycles) {
  // Taken branches cost more than untaken ones.
  const char* taken = R"(
_start: cmp %g0, 0
        be target
        nop
target: mov 0, %o0
        ta 0
)";
  const char* untaken = R"(
_start: cmp %g0, 1
        be target
        nop
target: mov 0, %o0
        ta 0
)";
  Board a(quiet_config());
  a.load(prog(taken));
  ASSERT_TRUE(a.run().halted);
  Board b(quiet_config());
  b.load(prog(untaken));
  ASSERT_TRUE(b.run().halted);
  EXPECT_GT(a.cycles(), b.cycles());
}

TEST(Board, SdramRowMissesCostExtraCycles) {
  // Sequential loads stay within one open row; scattered loads do not.
  const char* sequential = R"(
_start: set data, %g1
        ld [%g1], %l1
        ld [%g1+4], %l1
        ld [%g1+8], %l1
        ld [%g1+12], %l1
        mov 0, %o0
        ta 0
        .data
data:   .word 1, 2, 3, 4
)";
  const char* scattered = R"(
_start: set data, %g1
        set 0x40400000, %g2
        ld [%g1], %l1
        ld [%g2], %l1
        ld [%g1+8], %l1
        ld [%g2+8], %l1
        mov 0, %o0
        ta 0
        .data
data:   .word 1, 2, 3, 4
)";
  Board a(quiet_config());
  a.load(prog(sequential));
  ASSERT_TRUE(a.run().halted);
  Board b(quiet_config());
  b.load(prog(scattered));
  ASSERT_TRUE(b.run().halted);
  EXPECT_GT(b.cycles(), a.cycles());
  EXPECT_GT(b.stats().row_misses, a.stats().row_misses);
}

TEST(Board, DataDependentEnergyVariation) {
  // Same instruction count, different operand activity => different energy
  // when variation is on, identical when off.
  const char* low_activity = R"(
_start: mov 0, %l1
        add %l1, %l1, %l2
        add %l1, %l1, %l2
        add %l1, %l1, %l2
        mov 0, %o0
        ta 0
)";
  const char* high_activity = R"(
_start: set 0xAAAAAAAA, %l1
        set 0x55555555, %l3
        add %l1, %l3, %l2
        add %l3, %l1, %l2
        add %l1, %l3, %l2
        mov 0, %o0
        ta 0
)";
  BoardConfig vary = quiet_config();
  vary.enable_variation = true;
  Board a(vary);
  a.load(prog(low_activity));
  ASSERT_TRUE(a.run().halted);
  Board b(vary);
  b.load(prog(high_activity));
  ASSERT_TRUE(b.run().halted);
  // high_activity has one extra `set` (2 insns worth ~26-29 nJ); the toggle
  // effect on three adds at amplitude 0.16 is what we check ordering for.
  EXPECT_NE(a.true_energy_nj(), b.true_energy_nj());
}

TEST(Board, FpuInstructionsRejectedWithoutFpu) {
  BoardConfig cfg = quiet_config();
  cfg.has_fpu = false;
  Board brd(cfg);
  brd.load(prog(R"(
_start: set d, %g1
        lddf [%g1], %f0
        faddd %f0, %f0, %f2
        ta 0
        .data
        .align 8
d:      .double 1.0
)"));
  EXPECT_THROW(brd.run(), sim::SimError);
}

TEST(Board, MulDivInstructionsRejectedWithoutHardwareUnits) {
  BoardConfig cfg = quiet_config();
  cfg.has_hw_muldiv = false;
  Board brd(cfg);
  brd.load(prog(R"(
_start: mov 6, %l0
        umul %l0, %l0, %o0
        ta 0
)"));
  EXPECT_THROW(brd.run(), sim::SimError);
}

TEST(AreaModelMulDiv, UnitsCostArea) {
  AreaModel area;
  BoardConfig minimal;
  minimal.has_fpu = false;
  minimal.has_hw_muldiv = false;
  BoardConfig with_muldiv = minimal;
  with_muldiv.has_hw_muldiv = true;
  EXPECT_EQ(area.synthesize(minimal).total(), 4000u);
  EXPECT_EQ(area.synthesize(with_muldiv).total(), 5200u);
}

TEST(Board, MeterNoiseIsSeededPerKernelTag) {
  BoardConfig cfg;
  cfg.enable_meter_noise = true;
  Board brd(cfg);
  brd.load(prog("_start: mov 0, %o0\n ta 0\n"));
  ASSERT_TRUE(brd.run().halted);
  const auto m1 = brd.measure("kernel-a");
  const auto m2 = brd.measure("kernel-a");
  const auto m3 = brd.measure("kernel-b");
  EXPECT_EQ(m1.energy_nj, m2.energy_nj);  // reproducible
  EXPECT_NE(m1.energy_nj, m3.energy_nj);  // independent across kernels
}

TEST(Board, MeasurementCloseToGroundTruth) {
  BoardConfig cfg;  // defaults: noise on
  Board brd(cfg);
  brd.load(prog(R"(
_start: set 100000, %l0
loop:   subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
)"));
  ASSERT_TRUE(brd.run().halted);
  const auto m = brd.measure("loop-kernel");
  EXPECT_NEAR(m.energy_nj / brd.true_energy_nj(), 1.0, 0.02);
  EXPECT_NEAR(m.time_s / brd.true_time_s(), 1.0, 0.02);
}

TEST(Board, CacheExtensionReducesLoadCycles) {
  const char* loads = R"(
_start: set data, %g1
        set 1000, %l0
loop:   ld [%g1], %l1
        ld [%g1+4], %l2
        ld [%g1+8], %l3
        subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
        .data
data:   .word 1, 2, 3, 4
)";
  BoardConfig plain = quiet_config();
  BoardConfig cached = quiet_config();
  cached.enable_cache = true;
  Board a(plain);
  a.load(prog(loads));
  ASSERT_TRUE(a.run().halted);
  Board b(cached);
  b.load(prog(loads));
  ASSERT_TRUE(b.run().halted);
  EXPECT_LT(b.cycles(), a.cycles());
  EXPECT_GT(b.stats().cache_hits, 2900u);  // 3000 loads, 1 compulsory miss line
}

TEST(AreaModel, FpuRoughlyDoublesTheDesign) {
  AreaModel area;
  EXPECT_NEAR(area.fpu_area_increase_percent(), 109.0, 1.0);
  BoardConfig with;
  with.has_fpu = true;
  BoardConfig without;
  without.has_fpu = false;
  EXPECT_GT(area.synthesize(with).total(), area.synthesize(without).total());
  EXPECT_EQ(area.synthesize(without).fpu_les, 0u);
}

TEST(EventCounters, JsonCarriesVersionFirstAndEveryEventOnce) {
  EventCounters ev;
  for (std::size_t i = 0; i < kEventCount; ++i) ev.v[i] = 10 * i + 1;
  const std::string json = test::to_json_string(ev);
  EXPECT_TRUE(test::json_parses(json)) << json;
  const std::string version =
      "{\"version\":" + std::to_string(kEventCountersVersion) + ",";
  EXPECT_EQ(json.rfind(version, 0), 0u) << json;
  EXPECT_EQ(json.find("\"version\"", 2), std::string::npos) << json;
  std::size_t last = 0;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    const std::string key =
        "\"" + std::string(event_name(static_cast<Event>(i))) + "\":";
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GT(at, last) << key << " out of Event order";
    EXPECT_EQ(json.find(key, at + 1), std::string::npos) << key;
    EXPECT_EQ(json.compare(at + key.size(), std::to_string(ev.v[i]).size(),
                           std::to_string(ev.v[i])),
              0)
        << key;
    last = at;
  }
}

}  // namespace
}  // namespace nfp::board
