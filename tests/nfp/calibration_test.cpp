#include "nfp/calibration.h"

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>

#include "asmkit/assembler.h"
#include "board/board.h"
#include "board/cost_model.h"
#include "sim/memmap.h"

namespace nfp::model {
namespace {

CalibrationPlan small_plan() {
  // Small but still dominated by the tested instructions.
  return CalibrationPlan{.loops = 20'000, .per_loop = 32};
}

TEST(Calibration, KernelPairsFollowTableTwo) {
  Calibrator cal(CategoryScheme::paper(), small_plan());
  const auto pair = cal.make_kernels(0);  // Integer Arithmetic
  EXPECT_EQ(pair.n_test, 20'000u * 32u);
  // The reference kernel is the test kernel minus the tested body.
  EXPECT_LT(pair.ref_asm.size(), pair.test_asm.size());
  EXPECT_NE(pair.test_asm.find("add %l1, %l2, %l5"), std::string::npos);
  EXPECT_EQ(pair.ref_asm.find("add %l1, %l2, %l5"), std::string::npos);
  // Both share the loop scaffold.
  EXPECT_NE(pair.ref_asm.find("subcc %l0, 1, %l0"), std::string::npos);
  EXPECT_NE(pair.test_asm.find("subcc %l0, 1, %l0"), std::string::npos);
}

// Property: with a noise-free, variation-free board, Eq. 2 recovers the
// configured cost-model values essentially exactly.
TEST(Calibration, RecoversTrueCostsOnIdealBoard) {
  board::BoardConfig cfg;
  cfg.enable_variation = false;
  cfg.enable_meter_noise = false;
  Calibrator cal(CategoryScheme::paper(), small_plan());
  const auto result = cal.run(cfg);
  ASSERT_EQ(result.details.size(), 9u);

  const board::CostModel cost;
  const double tick_ns = 1e9 / cfg.clock_hz;
  const struct {
    std::size_t cat;
    isa::Op op;
  } probes[] = {
      {0, isa::Op::kAdd},    {2, isa::Op::kLd},     {3, isa::Op::kSt},
      {4, isa::Op::kNop},    {6, isa::Op::kFaddd},  {7, isa::Op::kFdivd},
      {8, isa::Op::kFsqrtd},
  };
  for (const auto& probe : probes) {
    const auto& oc = cost.of(probe.op);
    EXPECT_NEAR(result.costs.time_ns[probe.cat], oc.cycles * tick_ns,
                oc.cycles * tick_ns * 0.03)
        << "category " << probe.cat;
    EXPECT_NEAR(result.costs.energy_nj[probe.cat], oc.energy_nj,
                oc.energy_nj * 0.03)
        << "category " << probe.cat;
  }
  // Jump category: taken branches.
  EXPECT_NEAR(result.costs.time_ns[1], cost.of(isa::Op::kBicc).cycles * tick_ns,
              cost.of(isa::Op::kBicc).cycles * tick_ns * 0.05);
}

// With realistic board behaviour the calibrated values stay within a few
// percent of the truth and reproduce the Table-I ordering.
TEST(Calibration, RealisticBoardReproducesTableOneShape) {
  board::BoardConfig cfg;  // defaults: variation + meter noise on
  Calibrator cal(CategoryScheme::paper(), small_plan());
  const auto result = cal.run(cfg);
  const auto& t = result.costs.time_ns;
  const auto& e = result.costs.energy_nj;
  // Shape (paper Table I): load >> store >> jump >> int ~ nop ~ fpu-arith;
  // fdiv and fsqrt far above fpu-arith.
  EXPECT_GT(t[2], t[3]);      // load > store
  EXPECT_GT(t[3], t[1]);      // store > jump
  EXPECT_GT(t[1], t[0] * 3);  // jump >> int
  EXPECT_GT(t[7], t[6] * 5);  // fdiv >> fpu arith
  EXPECT_GT(t[8], t[6] * 5);  // fsqrt >> fpu arith
  EXPECT_GT(e[2], e[3]);      // load energy > store energy
  EXPECT_GT(e[7], e[8]);      // fdiv energy > fsqrt energy
  // Magnitudes in the right ballpark (paper: 45/238/700/376 ns...).
  EXPECT_NEAR(t[0], 40.0, 8.0);
  EXPECT_NEAR(t[2], 700.0, 60.0);
  EXPECT_NEAR(e[0], 15.0, 3.0);
  EXPECT_NEAR(e[2], 229.0, 25.0);
}

TEST(Calibration, FpuCategoriesSkippedWithoutFpu) {
  board::BoardConfig cfg;
  cfg.has_fpu = false;
  Calibrator cal(CategoryScheme::paper(), small_plan());
  const auto result = cal.run(cfg);
  EXPECT_EQ(result.details.size(), 6u);  // only the integer-unit categories
  EXPECT_EQ(result.costs.energy_nj[6], 0.0);
  EXPECT_EQ(result.costs.energy_nj[7], 0.0);
  EXPECT_EQ(result.costs.energy_nj[8], 0.0);
  EXPECT_GT(result.costs.energy_nj[0], 0.0);
}

TEST(Calibration, AlternativeSchemesCalibratable) {
  board::BoardConfig cfg;
  cfg.enable_variation = false;
  cfg.enable_meter_noise = false;
  for (const auto* scheme :
       {&CategoryScheme::coarse(), &CategoryScheme::fine()}) {
    // fit(eq1) is run(): one term per category of the calibrator's scheme,
    // named after it.
    Calibrator cal(*scheme, small_plan());
    const auto result = cal.fit(eq1_estimator(), cfg);
    EXPECT_EQ(result.scheme, "eq1");
    ASSERT_EQ(result.costs.size(), scheme->size());
    ASSERT_EQ(result.term_names.size(), scheme->size());
    for (std::size_t c = 0; c < scheme->size(); ++c) {
      EXPECT_EQ(result.term_names[c], scheme->category_name(c))
          << scheme->name();
    }
    for (const auto& d : result.details) {
      EXPECT_GT(d.specific_energy_nj, 0.0) << scheme->name() << d.category;
      EXPECT_GT(d.specific_time_ns, 0.0) << scheme->name() << d.category;
    }
  }
}

TEST(Calibration, RejectsZeroLoops) {
  EXPECT_THROW(
      Calibrator(CategoryScheme::paper(), {.loops = 0, .per_loop = 32}),
      std::invalid_argument);
}

TEST(Calibration, RejectsZeroPerLoop) {
  EXPECT_THROW(
      Calibrator(CategoryScheme::paper(), {.loops = 20'000, .per_loop = 0}),
      std::invalid_argument);
}

// Reference for the campaign path: each Table-II kernel alone on a fresh
// board, stepped one instruction at a time and read under the same meter
// tag, then Eq. 2 by hand. Calibrator::run must reproduce it bit for bit.
board::Measurement fresh_board_run(const board::BoardConfig& cfg,
                                   const std::string& source,
                                   const std::string& tag) {
  board::Board brd(cfg);
  brd.load(asmkit::assemble(source, sim::kTextBase));
  const auto run = brd.run(board::Board::kDefaultMaxInsns,
                           sim::Dispatch::kStep);
  if (!run.halted) throw std::runtime_error(tag + " did not halt");
  return brd.measure(tag);
}

TEST(Calibration, MatchesFreshBoardPerKernel) {
  board::BoardConfig no_fpu;
  no_fpu.has_fpu = false;
  for (const board::BoardConfig& cfg : {board::BoardConfig{}, no_fpu}) {
    const Calibrator cal(CategoryScheme::paper(), small_plan());
    const SchemeCalibration result = cal.run(cfg);
    for (std::size_t c = 0; c < CategoryScheme::paper().size(); ++c) {
      const KernelPair pair = cal.make_kernels(c);
      double want_e = 0.0;
      double want_t = 0.0;
      if (cfg.has_fpu || pair.category.rfind("FPU", 0) != 0) {
        const std::string tag = "cal/" + pair.category;
        const auto ref = fresh_board_run(cfg, pair.ref_asm, tag + "/ref");
        const auto test = fresh_board_run(cfg, pair.test_asm, tag + "/test");
        const auto n = static_cast<double>(pair.n_test);
        want_e = (test.energy_nj - ref.energy_nj) / n;
        want_t = (test.time_s - ref.time_s) * 1e9 / n;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.costs.energy_nj[c]),
                std::bit_cast<std::uint64_t>(want_e))
          << pair.category << " fpu=" << cfg.has_fpu;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.costs.time_ns[c]),
                std::bit_cast<std::uint64_t>(want_t))
          << pair.category << " fpu=" << cfg.has_fpu;
    }
  }
}

}  // namespace
}  // namespace nfp::model
