// Static NFP bounds tests. The load-bearing property: on loop-free
// single-path kernels the static lower-bound op-count vector equals the
// dynamic retire vector from the ISS exactly, so the static and dynamic
// Eq. 1 estimates coincide.
#include "analyze/bounds.h"

#include <gtest/gtest.h>

#include "asmkit/assembler.h"
#include "nfp/estimator.h"
#include "sim/iss.h"
#include "sim/memmap.h"
#include "support/eq1_reference.h"

namespace nfp::analyze {
namespace {

struct StaticAndDynamic {
  BoundsResult bounds;
  model::OpCounts dynamic_counts{};
  bool halted = false;
};

StaticAndDynamic run_both(const std::string& source) {
  const asmkit::Program program = asmkit::assemble(source, sim::kTextBase);
  const board::CostModel costs;
  StaticAndDynamic out;
  out.bounds = analyze_bounds(build_cfg(program), costs);
  sim::Iss iss;
  iss.load(program);
  out.halted = iss.run().halted;
  out.dynamic_counts = iss.counters().counts;
  return out;
}

model::CategoryCosts unit_costs(const model::CategoryScheme& scheme) {
  model::CategoryCosts costs;
  costs.energy_nj.assign(scheme.size(), 7.5);
  costs.time_ns.assign(scheme.size(), 20.0);
  return costs;
}

// Loop-free kernel 1: integer arithmetic plus a store/load pair.
constexpr const char* kIntKernel = R"(
_start:
  mov 40, %g1
  add %g1, 2, %g2
  sub %sp, 8, %g3
  st %g2, [%g3]
  ld [%g3], %g4
  xor %g4, %g2, %g5
  ta 0
  nop
)";

// Loop-free kernel 2: FPU arithmetic (load, convert, add, mul, store back).
constexpr const char* kFpuKernel = R"(
_start:
  sub %sp, 16, %g1
  mov 6, %g2
  st %g2, [%g1]
  ldf [%g1], %f0
  fitos %f0, %f1
  fadds %f1, %f1, %f2
  fmuls %f2, %f1, %f3
  fstoi %f3, %f4
  stf %f4, [%g1 + 4]
  ta 0
  nop
)";

TEST(Bounds, StaticLowerEqualsDynamicRetireVectorIntKernel) {
  const StaticAndDynamic r = run_both(kIntKernel);
  ASSERT_TRUE(r.halted);
  ASSERT_TRUE(r.bounds.has_exit);
  EXPECT_TRUE(r.bounds.lower_exact);
  EXPECT_EQ(r.bounds.lower.op_counts, r.dynamic_counts);
  // With identical op counts the Eq. 1 estimates are identical too.
  const auto& scheme = model::CategoryScheme::paper();
  const model::CategoryCosts costs = unit_costs(scheme);
  const model::Estimate st = model::eq1_estimator().estimate(
      {.counts = r.bounds.lower.op_counts}, costs);
  const model::Estimate dy =
      test::eq1_reference(scheme.aggregate(r.dynamic_counts), costs);
  EXPECT_EQ(st.energy_nj, dy.energy_nj);
  EXPECT_EQ(st.time_s, dy.time_s);
}

TEST(Bounds, StaticLowerEqualsDynamicRetireVectorFpuKernel) {
  const StaticAndDynamic r = run_both(kFpuKernel);
  ASSERT_TRUE(r.halted);
  ASSERT_TRUE(r.bounds.has_exit);
  EXPECT_TRUE(r.bounds.lower_exact);
  EXPECT_EQ(r.bounds.lower.op_counts, r.dynamic_counts);
  const auto& scheme = model::CategoryScheme::paper();
  const model::CategoryCosts costs = unit_costs(scheme);
  const model::Estimate st = model::eq1_estimator().estimate(
      {.counts = r.bounds.lower.op_counts}, costs);
  const model::Estimate dy =
      test::eq1_reference(scheme.aggregate(r.dynamic_counts), costs);
  EXPECT_EQ(st.energy_nj, dy.energy_nj);
  EXPECT_EQ(st.time_s, dy.time_s);
}

TEST(Bounds, IndirectExitBlocksUpperEstimate) {
  // Static-only: a retl with nothing on the stack would fault dynamically.
  const asmkit::Program program = asmkit::assemble(R"(
_start:
  mov 0, %g1
  retl
  nop
)",
                                                   sim::kTextBase);
  const board::CostModel costs;
  const BoundsResult bounds = analyze_bounds(build_cfg(program), costs);
  // The lower bound exists: the indirect block is a possible exit.
  EXPECT_TRUE(bounds.has_exit);
}

TEST(Bounds, InfiniteLoopHasNoExit) {
  const asmkit::Program program = asmkit::assemble(R"(
_start:
  ba _start
  nop
)",
                                                   sim::kTextBase);
  const board::CostModel costs;
  const BoundsResult bounds = analyze_bounds(build_cfg(program), costs);
  EXPECT_FALSE(bounds.has_exit);
  EXPECT_EQ(bounds.lower.insns, 0u);
}

TEST(Bounds, BranchingPathIsNotExact) {
  const StaticAndDynamic r = run_both(R"(
_start:
  cmp %g1, 0
  be skip
  nop
  mov 1, %g2
skip:
  ta 0
  nop
)");
  ASSERT_TRUE(r.bounds.has_exit);
  EXPECT_FALSE(r.bounds.lower_exact);
  // The bound is on cycles, not instructions: the min-time path is the
  // cheaper of the two alternatives (and may retire more instructions than
  // the path the hardware took, if untaken branches are cheap enough).
  const board::CostModel costs;
  const auto& subcc = costs.of(isa::Op::kSubcc);
  const auto& bicc = costs.of(isa::Op::kBicc);
  const auto& nop = costs.of(isa::Op::kNop);
  const auto& mov = costs.of(isa::Op::kOr);
  const auto& ta = costs.of(isa::Op::kTicc);
  const std::uint64_t taken =
      std::uint64_t{subcc.cycles} + bicc.cycles + nop.cycles + ta.cycles;
  const std::uint64_t untaken = std::uint64_t{subcc.cycles} +
                                bicc.cycles_alt + nop.cycles + mov.cycles +
                                ta.cycles;
  EXPECT_EQ(r.bounds.lower.cycles, std::min(taken, untaken));
}

TEST(Bounds, LowerCyclesRespectUntakenBranchCost) {
  // bn never branches: the min-time path pays cycles_alt, not cycles.
  const asmkit::Program program = asmkit::assemble(R"(
_start:
  bn nowhere
  nop
  ta 0
  nop
nowhere:
  ta 0
  nop
)",
                                                   sim::kTextBase);
  const board::CostModel costs;
  const BoundsResult b = analyze_bounds(build_cfg(program), costs);
  ASSERT_TRUE(b.has_exit);
  const auto& bn = costs.of(isa::Op::kBicc);
  const auto& nop = costs.of(isa::Op::kNop);
  const auto& ta = costs.of(isa::Op::kTicc);
  EXPECT_EQ(b.lower.cycles,
            std::uint64_t{bn.cycles_alt} + nop.cycles + ta.cycles);
}

}  // namespace
}  // namespace nfp::analyze
