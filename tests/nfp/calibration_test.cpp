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
  Calibrator cal(small_plan());
  const auto pair = cal.make_kernels("Integer Arithmetic");
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
  Calibrator cal(small_plan());
  const auto result = cal.fit(eq1_estimator(), cfg);
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
  Calibrator cal(small_plan());
  const auto result = cal.fit(eq1_estimator(), cfg);
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
  Calibrator cal(small_plan());
  const auto result = cal.fit(eq1_estimator(), cfg);
  EXPECT_EQ(result.details.size(), 6u);  // only the integer-unit categories
  EXPECT_EQ(result.costs.energy_nj[6], 0.0);
  EXPECT_EQ(result.costs.energy_nj[7], 0.0);
  EXPECT_EQ(result.costs.energy_nj[8], 0.0);
  EXPECT_GT(result.costs.energy_nj[0], 0.0);
}

// Eq. 2 over any category scheme feeds the estimator it was fitted for:
// one cost per category, named after it, and the same Eq1Estimator prices a
// run with them.
TEST(Calibration, Eq1CalibrationFeedsItsEstimator) {
  board::BoardConfig cfg;
  cfg.enable_variation = false;
  cfg.enable_meter_noise = false;
  RunSample run;
  for (std::size_t i = 0; i < isa::kOpCount; ++i) run.counts[i] = 1000 + i;
  for (const auto* scheme : {&CategoryScheme::coarse(),
                             &CategoryScheme::paper(),
                             &CategoryScheme::fine()}) {
    const Eq1Estimator eq1(*scheme);
    const auto result = Calibrator(small_plan()).fit(eq1, cfg);
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
    Estimate est;
    ASSERT_NO_THROW(est = eq1.estimate(run, result.costs)) << scheme->name();
    EXPECT_GT(est.energy_nj, 0.0) << scheme->name();
    EXPECT_GT(est.time_s, 0.0) << scheme->name();
  }
}

// samples counts Table-II pairs (difference samples) in both branches: Eq. 2
// has one per calibrated category, the fitted schemes two more for the Row
// Stride and Mul/Div excitation pairs.
TEST(Calibration, SamplesCountTableTwoPairs) {
  board::BoardConfig no_fpu;
  no_fpu.has_fpu = false;
  const Calibrator cal(small_plan());
  for (const board::BoardConfig& cfg : {board::BoardConfig{}, no_fpu}) {
    const SchemeCalibration eq1 = cal.fit(eq1_estimator(), cfg);
    EXPECT_EQ(eq1.samples, eq1.details.size()) << "fpu=" << cfg.has_fpu;
    const SchemeCalibration events = cal.fit(events_estimator(), cfg);
    EXPECT_EQ(events.samples, eq1.samples + 2) << "fpu=" << cfg.has_fpu;
  }
}

TEST(Calibration, RejectsZeroLoops) {
  EXPECT_THROW(
      Calibrator({.loops = 0, .per_loop = 32}),
      std::invalid_argument);
}

TEST(Calibration, RejectsZeroPerLoop) {
  EXPECT_THROW(
      Calibrator({.loops = 20'000, .per_loop = 0}),
      std::invalid_argument);
}

// Reference for the campaign path: each Table-II kernel alone on a fresh
// board, stepped one instruction at a time and read under the same meter
// tag, then Eq. 2 by hand. fit(eq1) must reproduce it bit for bit.
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
    const Calibrator cal(small_plan());
    const SchemeCalibration result = cal.fit(eq1_estimator(), cfg);
    for (std::size_t c = 0; c < CategoryScheme::paper().size(); ++c) {
      const KernelPair pair =
          cal.make_kernels(CategoryScheme::paper().category_name(c));
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
