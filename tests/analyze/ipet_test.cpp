// IPET flow-solver tests. Load-bearing invariants:
//   - the dynamic retire totals of a real run always sit inside the static
//     interval (containment),
//   - the IPET lower bound is never below the Dijkstra lower bound, and the
//     two agree exactly on loop-free kernels,
//   - interprocedural composition (callee summaries on continuation edges)
//     prices a call-in-loop program exactly,
//   - everything the formulation cannot model is a machine-parseable
//     refusal, never a number.
#include "analyze/ipet.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analyze/profile.h"
#include "asmkit/assembler.h"
#include "board/board.h"
#include "sim/iss.h"
#include "sim/memmap.h"
#include "support/json_check.h"

#ifndef NFP_ANALYZE_FIXTURE_DIR
#error "NFP_ANALYZE_FIXTURE_DIR must point at tests/analyze/fixtures"
#endif

namespace nfp::analyze {
namespace {

std::string fixture(const std::string& name) {
  std::ifstream in(std::string(NFP_ANALYZE_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.is_open()) << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Triangle {
  IpetResult ipet;
  BoundsResult dijkstra;
  bool halted = false;
  std::uint64_t instret = 0;   // ground truth from the board
  std::uint64_t cycles = 0;
  double energy_nj = 0.0;
};

// Static interval + Dijkstra lower + board ground truth for one source.
Triangle run_triangle(const std::string& source, const IpetConfig& config = {},
                      bool run_dynamic = true) {
  const asmkit::Program program = asmkit::assemble(source, sim::kTextBase);
  const board::CostModel costs;
  const Cfg cfg = build_cfg(program);
  Triangle t;
  t.ipet = analyze_ipet(cfg, costs, config);
  t.dijkstra = analyze_bounds(cfg, costs);
  if (run_dynamic) {
    board::Board brd{board::BoardConfig{}};
    brd.load(program);
    const auto run = brd.run();
    t.halted = run.halted;
    t.instret = run.instret;
    t.cycles = brd.cycles();
    t.energy_nj = brd.true_energy_nj();
  }
  return t;
}

void expect_contained(const Triangle& t) {
  ASSERT_TRUE(t.ipet.accepted) << t.ipet.refusal_detail;
  ASSERT_TRUE(t.halted);
  const auto n = static_cast<double>(t.instret);
  const auto c = static_cast<double>(t.cycles);
  EXPECT_LE(t.ipet.insns.lower, n);
  EXPECT_GE(t.ipet.insns.upper, n);
  EXPECT_LE(t.ipet.cycles.lower, c);
  EXPECT_GE(t.ipet.cycles.upper, c);
  EXPECT_LE(t.ipet.energy_nj.lower, t.energy_nj * (1 + 1e-12));
  EXPECT_GE(t.ipet.energy_nj.upper, t.energy_nj * (1 - 1e-12));
}

void expect_not_below_dijkstra(const Triangle& t) {
  ASSERT_TRUE(t.ipet.accepted);
  ASSERT_TRUE(t.dijkstra.has_exit);
  EXPECT_GE(t.ipet.insns.lower, static_cast<double>(t.dijkstra.lower.insns));
  EXPECT_GE(t.ipet.cycles.lower, static_cast<double>(t.dijkstra.lower.cycles));
  EXPECT_GE(t.ipet.energy_nj.lower, t.dijkstra.lower_energy_nj);
}

constexpr const char* kLoopFreeKernel = R"(
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

TEST(Ipet, LoopFreeLowerEqualsDijkstraExactly) {
  const Triangle t = run_triangle(kLoopFreeKernel);
  ASSERT_TRUE(t.ipet.accepted) << t.ipet.refusal_detail;
  // Single path: the lower ends coincide with the (exact) Dijkstra lower.
  EXPECT_EQ(t.ipet.insns.lower, static_cast<double>(t.dijkstra.lower.insns));
  EXPECT_EQ(t.ipet.cycles.lower, static_cast<double>(t.dijkstra.lower.cycles));
  EXPECT_DOUBLE_EQ(t.ipet.energy_nj.lower, t.dijkstra.lower_energy_nj);
  // Instruction counts carry no residual, so that interval collapses.
  EXPECT_EQ(t.ipet.insns.upper, t.ipet.insns.lower);
  // Cycles keep exactly the SDRAM row-miss headroom of the st/ld pair.
  const board::CostModel costs;
  EXPECT_EQ(t.ipet.cycles.upper,
            t.ipet.cycles.lower + 2.0 * costs.row_miss_cycles());
  // Energy keeps the toggle-modulation envelope open.
  EXPECT_GT(t.ipet.energy_nj.upper, t.ipet.energy_nj.lower);
  expect_contained(t);
  expect_not_below_dijkstra(t);
  // The witness vector matches the true retire count on a single path.
  EXPECT_EQ(t.ipet.lower.insns, t.instret);
}

TEST(Ipet, BranchingProgramBracketsBothArms) {
  const Triangle t = run_triangle(R"(
_start:
  cmp %g1, 0
  be skip
  nop
  mov 1, %g2
  xor %g2, %g2, %g3
skip:
  ta 0
  nop
)");
  ASSERT_TRUE(t.ipet.accepted) << t.ipet.refusal_detail;
  expect_contained(t);
  expect_not_below_dijkstra(t);
  // Two arms of different lengths: the interval is genuinely open.
  EXPECT_LT(t.ipet.insns.lower, t.ipet.insns.upper);
}

TEST(Ipet, CountedLoopUpperIsTight) {
  const Triangle t = run_triangle(R"(
_start:
  mov 12, %g2
  mov 0, %g3
loop:
  add %g3, 5, %g3
  subcc %g2, 3, %g2
  bne loop
  nop
  ta 0
  nop
)");
  ASSERT_TRUE(t.ipet.accepted) << t.ipet.refusal_detail;
  expect_contained(t);
  expect_not_below_dijkstra(t);
  ASSERT_EQ(t.ipet.loops.size(), 1u);
  EXPECT_EQ(t.ipet.loops[0].source, IpetBoundSource::kInferred);
  EXPECT_EQ(t.ipet.loops[0].bound, 4u);
  EXPECT_FALSE(t.ipet.loops[0].detail.empty());
  // The inferred bound is exact here, so the max-flow vertex retires
  // exactly what the hardware retired.
  EXPECT_EQ(t.ipet.insns.upper, static_cast<double>(t.instret));
  EXPECT_EQ(t.ipet.cycles.upper, static_cast<double>(t.cycles));
}

TEST(Ipet, NestedCountedLoopsFixture) {
  const Triangle t = run_triangle(fixture("nested_counted.s"));
  ASSERT_TRUE(t.ipet.accepted) << t.ipet.refusal_detail;
  expect_contained(t);
  expect_not_below_dijkstra(t);
  ASSERT_EQ(t.ipet.loops.size(), 2u);
  for (const IpetLoop& loop : t.ipet.loops) {
    EXPECT_EQ(loop.source, IpetBoundSource::kInferred);
    EXPECT_EQ(loop.bound, loop.depth == 2 ? 4u : 3u);
  }
  EXPECT_EQ(t.ipet.insns.upper, static_cast<double>(t.instret));
}

TEST(Ipet, ZeroTripFixture) {
  const Triangle t = run_triangle(fixture("zero_trip.s"));
  ASSERT_TRUE(t.ipet.accepted) << t.ipet.refusal_detail;
  expect_contained(t);
  expect_not_below_dijkstra(t);
  ASSERT_EQ(t.ipet.loops.size(), 1u);
  EXPECT_EQ(t.ipet.loops[0].bound, 1u);
}

TEST(Ipet, SlotStrideLoopFixture) {
  const Triangle t = run_triangle(fixture("slot_stride_loop.s"));
  ASSERT_TRUE(t.ipet.accepted) << t.ipet.refusal_detail;
  expect_contained(t);
  ASSERT_EQ(t.ipet.loops.size(), 1u);
  EXPECT_EQ(t.ipet.loops[0].bound, 6u);
  EXPECT_EQ(t.ipet.insns.upper, static_cast<double>(t.instret));
}

TEST(Ipet, CallInLoopFixtureComposesCalleeSummaries) {
  const Triangle t = run_triangle(fixture("call_in_loop.s"));
  ASSERT_TRUE(t.ipet.accepted) << t.ipet.refusal_detail;
  EXPECT_EQ(t.ipet.functions, 2u);
  expect_contained(t);
  // Dijkstra dives into the callee and stops at its return, so its lower
  // bound is strictly weaker than the interprocedural IPET one here.
  ASSERT_TRUE(t.dijkstra.has_exit);
  EXPECT_GT(t.ipet.insns.lower, static_cast<double>(t.dijkstra.lower.insns));
  // The loop bound (5) is exact: the max vertex retires the true stream.
  EXPECT_EQ(t.ipet.insns.upper, static_cast<double>(t.instret));
  EXPECT_EQ(t.ipet.cycles.upper, static_cast<double>(t.cycles));
  ASSERT_EQ(t.ipet.loops.size(), 1u);
  EXPECT_EQ(t.ipet.loops[0].bound, 5u);
}

TEST(Ipet, IrreducibleFixtureRefusesWithOffendingEdge) {
  const Triangle t = run_triangle(fixture("irreducible.s"), {}, false);
  EXPECT_FALSE(t.ipet.accepted);
  EXPECT_EQ(t.ipet.refusal, IpetRefusal::kIrreducible);
  EXPECT_NE(t.ipet.refusal_detail.find("irreducible"), std::string::npos);
  EXPECT_NE(t.ipet.refusal_detail.find("->"), std::string::npos);
}

TEST(Ipet, UnboundedLoopRefusesThenAnnotationAndTotalsRecover) {
  const std::string source = R"(
_start:
  mov 8, %g1
  mov 2, %g2
loop:
  subcc %g1, %g2, %g1
  bne loop
  nop
  ta 0
  nop
)";
  const Triangle bare = run_triangle(source, {}, false);
  EXPECT_FALSE(bare.ipet.accepted);
  EXPECT_EQ(bare.ipet.refusal, IpetRefusal::kUnboundedLoop);
  EXPECT_STREQ(to_string(bare.ipet.refusal), "unbounded-loop");

  // Annotation recovery (relative bound).
  IpetConfig annotated;
  annotated.loop_bounds[sim::kTextBase + 8] = 4;
  const Triangle ann = run_triangle(source, annotated);
  ASSERT_TRUE(ann.ipet.accepted) << ann.ipet.refusal_detail;
  expect_contained(ann);
  ASSERT_EQ(ann.ipet.loops.size(), 1u);
  EXPECT_EQ(ann.ipet.loops[0].source, IpetBoundSource::kAnnotated);
  EXPECT_EQ(ann.ipet.insns.upper, static_cast<double>(ann.instret));

  // Profile-total recovery: one instrumented reference run supplies an
  // absolute header-execution count.
  const asmkit::Program program = asmkit::assemble(source, sim::kTextBase);
  const PcProfile profile = profile_pcs(program);
  ASSERT_TRUE(profile.halted);
  IpetConfig totals;
  totals.loop_totals = block_totals(build_cfg(program), profile);
  const Triangle tot = run_triangle(source, totals);
  ASSERT_TRUE(tot.ipet.accepted) << tot.ipet.refusal_detail;
  expect_contained(tot);
  ASSERT_EQ(tot.ipet.loops.size(), 1u);
  EXPECT_EQ(tot.ipet.loops[0].source, IpetBoundSource::kTotal);
  EXPECT_EQ(tot.ipet.loops[0].bound, 4u);
  EXPECT_EQ(tot.ipet.insns.upper, static_cast<double>(tot.instret));
}

TEST(Ipet, RecursionRefusesWithNamedCycle) {
  const Triangle t = run_triangle(R"(
_start:
  call ping
  nop
  ta 0
  nop
ping:
  call pong
  nop
  retl
  nop
pong:
  call ping
  nop
  retl
  nop
)",
                                  {}, false);
  EXPECT_FALSE(t.ipet.accepted);
  EXPECT_EQ(t.ipet.refusal, IpetRefusal::kRecursion);
  EXPECT_NE(t.ipet.refusal_detail.find("cycle"), std::string::npos);
  EXPECT_NE(t.ipet.refusal_detail.find("->"), std::string::npos);
}

TEST(Ipet, HaltInCalleeRefuses) {
  const Triangle t = run_triangle(R"(
_start:
  call helper
  nop
  ta 0
  nop
helper:
  ta 0
  nop
)",
                                  {}, false);
  EXPECT_FALSE(t.ipet.accepted);
  EXPECT_EQ(t.ipet.refusal, IpetRefusal::kHaltInCallee);
}

TEST(Ipet, BadIndirectRefuses) {
  const Triangle t = run_triangle(R"(
_start:
  mov 64, %g1
  jmpl %g1, %g0
  nop
)",
                                  {}, false);
  EXPECT_FALSE(t.ipet.accepted);
  EXPECT_EQ(t.ipet.refusal, IpetRefusal::kIndirectJump);
}

TEST(Ipet, LintErrorsRefuse) {
  const Triangle t = run_triangle(fixture("cti_in_slot.s"), {}, false);
  EXPECT_FALSE(t.ipet.accepted);
  EXPECT_EQ(t.ipet.refusal, IpetRefusal::kLintErrors);
  EXPECT_STREQ(to_string(t.ipet.refusal), "lint-errors");
}

TEST(Ipet, RenderAndJsonCarryTheTriangleFields) {
  const Triangle t = run_triangle(kLoopFreeKernel, {}, false);
  ASSERT_TRUE(t.ipet.accepted);
  const std::string text = render(t.ipet);
  EXPECT_NE(text.find("ipet cycles ["), std::string::npos);
  EXPECT_NE(text.find("ipet energy ["), std::string::npos);
  const std::string json = test::to_json_string(t.ipet);
  EXPECT_NE(json.find("\"accepted\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cycles\":{\"lower\":"), std::string::npos);

  const Triangle refused = run_triangle(fixture("irreducible.s"), {}, false);
  const std::string rjson = test::to_json_string(refused.ipet);
  EXPECT_NE(rjson.find("\"accepted\":false"), std::string::npos);
  EXPECT_NE(rjson.find("\"reason\":\"irreducible-loop\""), std::string::npos);
  const std::string rtext = render(refused.ipet);
  EXPECT_NE(rtext.find("[reason=irreducible-loop block=0x"),
            std::string::npos);

  // Free-text details (refusal sentences, loop provenance) go through the
  // shared JSON escaper: quotes, backslashes and control characters.
  EXPECT_TRUE(test::json_parses(json)) << json;
  EXPECT_TRUE(test::json_parses(rjson)) << rjson;
  IpetResult odd = refused.ipet;
  odd.refusal_detail = "call \"we\\ird\" at\x01 0x40000000\n";
  const std::string ojson = test::to_json_string(odd);
  EXPECT_TRUE(test::json_parses(ojson)) << ojson;
  EXPECT_NE(ojson.find("call \\\"we\\\\ird\\\" at\\u0001 0x40000000\\n"),
            std::string::npos)
      << ojson;
  IpetResult loop_odd = t.ipet;
  loop_odd.loops.push_back(IpetLoop{});
  loop_odd.loops.back().detail = "counter \"%g1\"\t\x1f";
  const std::string ljson = test::to_json_string(loop_odd);
  EXPECT_TRUE(test::json_parses(ljson)) << ljson;
  EXPECT_NE(ljson.find("counter \\\"%g1\\\"\\t\\u001f"), std::string::npos)
      << ljson;
}

TEST(Profile, PcCountsMatchInstret) {
  const asmkit::Program program =
      asmkit::assemble(kLoopFreeKernel, sim::kTextBase);
  const PcProfile profile = profile_pcs(program);
  ASSERT_TRUE(profile.halted);
  std::uint64_t sum = 0;
  for (const std::uint64_t c : profile.counts) sum += c;
  EXPECT_EQ(sum, profile.instret);
  EXPECT_EQ(profile.at(sim::kTextBase), 1u);       // entry retires once
  EXPECT_EQ(profile.at(sim::kTextBase - 4), 0u);   // off-image is zero
}

}  // namespace
}  // namespace nfp::analyze
