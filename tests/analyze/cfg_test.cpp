// Static CFG recovery and lint tests: delay-slot legality, block splitting,
// edge resolution, and off-image detection.
#include "analyze/cfg.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "asmkit/assembler.h"
#include "sim/memmap.h"

#ifndef NFP_ANALYZE_FIXTURE_DIR
#error "NFP_ANALYZE_FIXTURE_DIR must point at tests/analyze/fixtures"
#endif

namespace nfp::analyze {
namespace {

Cfg analyze_source(const std::string& source) {
  return build_cfg(asmkit::assemble(source, sim::kTextBase));
}

std::string fixture_source(const std::string& name) {
  std::ifstream in(std::string(NFP_ANALYZE_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.is_open()) << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool has_finding(const Cfg& cfg, LintCode code) {
  for (const auto& f : cfg.findings) {
    if (f.code == code) return true;
  }
  return false;
}

const LintFinding* find(const Cfg& cfg, LintCode code) {
  for (const auto& f : cfg.findings) {
    if (f.code == code) return &f;
  }
  return nullptr;
}

TEST(CfgLint, StraightLineKernelIsClean) {
  const Cfg cfg = analyze_source(R"(
_start:
  mov 3, %g1
  add %g1, %g1, %g2
  st %g2, [%g1]
  ta 0
  nop
)");
  EXPECT_FALSE(cfg.has_errors());
  ASSERT_EQ(cfg.blocks.size(), 1u);
  const BasicBlock& b = cfg.blocks.begin()->second;
  EXPECT_EQ(b.start, cfg.entry);
  EXPECT_EQ(b.insn_count, 4u);  // the trailing nop never executes
  EXPECT_TRUE(b.halt);
  EXPECT_TRUE(b.edges.empty());
  // ...but it is reported as unreachable.
  EXPECT_TRUE(has_finding(cfg, LintCode::kUnreachableCode));
}

TEST(CfgLint, HandWrittenCtiInDelaySlotFixtureIsFlagged) {
  const Cfg cfg = analyze_source(fixture_source("cti_in_slot.s"));
  EXPECT_TRUE(cfg.has_errors());
  const LintFinding* f = find(cfg, LintCode::kCtiInDelaySlot);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  // The bne sits fourth in the fixture: entry + 12.
  EXPECT_EQ(f->pc, cfg.entry + 12);
}

TEST(CfgLint, CtiInAnnulledSlotIsOnlyAWarning) {
  // ba,a skips its delay slot always, so a CTI there can never execute.
  const Cfg cfg = analyze_source(R"(
_start:
  ba,a done
  bne _start
done:
  ta 0
  nop
)");
  EXPECT_FALSE(cfg.has_errors());
  EXPECT_TRUE(has_finding(cfg, LintCode::kCtiInAnnulledSlot));
}

TEST(CfgLint, IllegalEncodingInLiveSlotIsAnError) {
  const Cfg cfg = analyze_source(R"(
_start:
  ba done
  .word 0x00000000   ! op2 == 0: reserved format-2 encoding (unimp)
done:
  ta 0
  nop
)");
  const LintFinding* f = find(cfg, LintCode::kIllegalEncoding);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->pc, cfg.entry + 4);
}

TEST(CfgLint, IllegalEncodingInAnnulledSlotIsAWarning) {
  const Cfg cfg = analyze_source(R"(
_start:
  ba,a done
  .word 0x00000000
done:
  ta 0
  nop
)");
  EXPECT_FALSE(cfg.has_errors());
  EXPECT_TRUE(has_finding(cfg, LintCode::kIllegalInAnnulledSlot));
}

TEST(CfgLint, ReachableIllegalEncodingIsAnError) {
  const Cfg cfg = analyze_source(R"(
_start:
  mov 1, %g1
  .word 0x00000000
  ta 0
  nop
)");
  EXPECT_TRUE(cfg.has_errors());
  const LintFinding* f = find(cfg, LintCode::kIllegalEncoding);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pc, cfg.entry + 4);
}

TEST(CfgLint, ConditionalBranchSplitsBlocksAndResolvesEdges) {
  const Cfg cfg = analyze_source(R"(
_start:
  cmp %g1, 0
  be taken
  nop
  mov 1, %g2
taken:
  ta 0
  nop
)");
  EXPECT_FALSE(cfg.has_errors());
  ASSERT_EQ(cfg.blocks.size(), 3u);
  const BasicBlock& head = cfg.blocks.at(cfg.entry);
  EXPECT_TRUE(head.has_cti);
  EXPECT_TRUE(head.has_slot);
  ASSERT_EQ(head.edges.size(), 2u);
  bool saw_taken = false, saw_untaken = false;
  for (const CfgEdge& e : head.edges) {
    if (e.kind == CfgEdge::Kind::kTaken) {
      saw_taken = true;
      EXPECT_EQ(e.target, cfg.entry + 16);  // label `taken`
      EXPECT_TRUE(e.includes_slot);
    }
    if (e.kind == CfgEdge::Kind::kUntaken) {
      saw_untaken = true;
      EXPECT_EQ(e.target, cfg.entry + 12);  // past the couple
      EXPECT_TRUE(e.includes_slot);
    }
  }
  EXPECT_TRUE(saw_taken);
  EXPECT_TRUE(saw_untaken);
}

TEST(CfgLint, AnnulledConditionalExcludesSlotOnUntakenEdge) {
  const Cfg cfg = analyze_source(R"(
_start:
  cmp %g1, 0
  be,a taken
  mov 9, %g3
  mov 1, %g2
taken:
  ta 0
  nop
)");
  const BasicBlock& head = cfg.blocks.at(cfg.entry);
  for (const CfgEdge& e : head.edges) {
    if (e.kind == CfgEdge::Kind::kUntaken) EXPECT_FALSE(e.includes_slot);
    if (e.kind == CfgEdge::Kind::kTaken) EXPECT_TRUE(e.includes_slot);
  }
}

TEST(CfgLint, CallEdgeAndReturnSiteAreRecovered) {
  const Cfg cfg = analyze_source(R"(
_start:
  call helper
  nop
  ta 0
  nop
helper:
  retl
  nop
)");
  const BasicBlock& head = cfg.blocks.at(cfg.entry);
  ASSERT_EQ(head.edges.size(), 1u);
  EXPECT_EQ(head.edges[0].kind, CfgEdge::Kind::kCall);
  EXPECT_EQ(head.edges[0].target, cfg.entry + 16);  // helper
  // The return site pc+8 is recovered as its own block.
  EXPECT_EQ(cfg.blocks.count(cfg.entry + 8), 1u);
  // retl is jmpl: an indirect exit.
  EXPECT_TRUE(cfg.blocks.at(cfg.entry + 16).indirect);
  EXPECT_FALSE(cfg.has_errors());
}

TEST(CfgLint, FallThroughOffImageIsAnError) {
  const Cfg cfg = analyze_source(R"(
_start:
  mov 1, %g1
  add %g1, %g1, %g2
)");
  EXPECT_TRUE(cfg.has_errors());
  EXPECT_TRUE(has_finding(cfg, LintCode::kFallThroughOffImage));
}

TEST(CfgLint, DelaySlotOffImageIsAnError) {
  const Cfg cfg = analyze_source(R"(
_start:
  ba _start
)");
  EXPECT_TRUE(cfg.has_errors());
  EXPECT_TRUE(has_finding(cfg, LintCode::kDelaySlotOffImage));
}

TEST(CfgLint, StaticNonHaltTrapIsAnError) {
  const Cfg cfg = analyze_source(R"(
_start:
  ta 5
  nop
)");
  EXPECT_TRUE(cfg.has_errors());
  EXPECT_TRUE(has_finding(cfg, LintCode::kStaticTrapNotHalt));
}

TEST(CfgLint, BranchIntoDelaySlotExecutesItStandalone) {
  // Branching into a delay slot is legal; the slot instruction becomes its
  // own block entry.
  const Cfg cfg = analyze_source(R"(
_start:
  ba over
slot:
  mov 2, %g1
over:
  cmp %g1, 0
  bne slot
  nop
  ta 0
  nop
)");
  EXPECT_FALSE(cfg.has_errors());
  EXPECT_EQ(cfg.blocks.count(cfg.entry + 4), 1u);  // `slot` is a block
}

TEST(CfgLint, UnreachableRunsAreCoalesced) {
  const Cfg cfg = analyze_source(R"(
_start:
  ta 0
  nop
  mov 1, %g1
  mov 2, %g2
  mov 3, %g3
)");
  const LintFinding* f = find(cfg, LintCode::kUnreachableCode);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_EQ(f->pc, cfg.entry + 4);  // the nop onward, one coalesced run
  EXPECT_NE(f->message.find("4 unreachable"), std::string::npos);
}

TEST(CfgLint, LoopHasBackEdge) {
  const Cfg cfg = analyze_source(R"(
_start:
  mov 4, %g1
loop:
  subcc %g1, 1, %g1
  bne loop
  nop
  ta 0
  nop
)");
  EXPECT_FALSE(cfg.has_errors());
  const BasicBlock& latch = cfg.blocks.at(cfg.entry + 4);
  bool back = false;
  for (const CfgEdge& e : latch.edges) {
    back = back || (e.kind == CfgEdge::Kind::kTaken && e.target == latch.start);
  }
  EXPECT_TRUE(back);
}

// The loop-shaped fixtures (nested loops, a call inside a loop, a two-entry
// cycle, a stride in the delay slot, a zero-trip header) recover without
// lint errors into a pinned number of blocks.
TEST(CfgLint, LoopFixturesRecoverCleanly) {
  const struct {
    const char* file;
    std::size_t blocks;
  } cases[] = {
      {"call_in_loop.s", 5},     {"irreducible.s", 4},
      {"nested_counted.s", 5},   {"slot_stride_loop.s", 3},
      {"zero_trip.s", 4},
  };
  for (const auto& c : cases) {
    const Cfg cfg = analyze_source(fixture_source(c.file));
    EXPECT_EQ(cfg.blocks.size(), c.blocks) << c.file;
    EXPECT_EQ(cfg.error_count(), 0u) << c.file;
  }
}

}  // namespace
}  // namespace nfp::analyze
