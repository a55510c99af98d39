// Directed regression programs for the two hardest dispatch-cache hazards
// the fuzzer targets: branch-target-cache aliasing (two register-indirect
// arrival sites colliding in the jit's 512-entry direct-mapped inline BTC)
// and mid-chain invalidation (a store rewriting the second block of a
// patched jit transition while the first block is the one executing). Both
// must be architecturally invisible: every dispatch mode agrees with the
// stepping reference at every budget granularity.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "asmkit/assembler.h"
#include "fuzz/oracle.h"
#include "sim/block_cache.h"
#include "sim/digest.h"
#include "sim/iss.h"
#include "sim/jit.h"
#include "sim/memmap.h"

namespace nfp::fuzz {
namespace {

// Two call sites 2048 bytes apart: their return arrival pcs (site + 8) map
// to the same inline-BTC slot ((pc >> 2) & 511), so the shared slot is
// evicted on every iteration. A stale hit would resume after the wrong call
// site.
const char* kBtcAliasSource = R"(! btc aliasing: return sites collide mod 2048
  .text
  .global _start
_start:
  clr %l0
  clr %o0
  set f1, %g1
  set f2, %g2
loop:
  jmpl %g1, %o7
  nop
  ba mid
  nop
  .space 2032
mid:
  jmpl %g2, %o7
  nop
  add %l0, 1, %l0
  cmp %l0, 40
  bne loop
  nop
  ta 0
  nop
f1:
  retl
  add %o0, 1, %o0
f2:
  retl
  add %o0, 2, %o0
)";

// A counted loop whose first block stores an xor-toggled word over the
// entry instruction of its successor ("patch"), then branches into the
// freshly rewritten block. Every iteration's store must flush "patch"
// before the transition into it resolves.
const char* kMidChainSource = R"(! mid-chain invalidation: store over the
! second block of a transition
  .text
  .global _start
_start:
  mov 0, %o0
  set patch, %g5
  set word2, %g6
  ld [%g6], %g6
  ld [%g5], %o1
  xor %o1, %g6, %g6
  mov 8, %g7
head:
  ld [%g5], %o1
  xor %o1, %g6, %o1
  st %o1, [%g5]
  ba patch
  nop
patch:
  add %o0, 5, %o0
  subcc %g7, 1, %g7
  bne head
  nop
  ta 0
  nop
word2:
  add %o0, 9, %o0
)";

TEST(FuzzDirected, BtcAliasingNeverReturnsStaleSuccessor) {
  DiffConfig diff;
  diff.checkpoint_seed = 0xB7C;
  DiffArena arena;
  const DiffReport report =
      run_differential_source(kBtcAliasSource, diff, arena);
  EXPECT_FALSE(report.diverged) << report.detail;
  EXPECT_TRUE(report.step_halted);

  sim::Iss iss;
  iss.load(asmkit::assemble(kBtcAliasSource, sim::kTextBase));
  const auto r = iss.run(1'000'000, sim::Dispatch::kBlock);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(iss.cpu().r[8], 40u * 3u);  // %o0: f1 adds 1, f2 adds 2, x40

  // The program must actually exercise the aliasing slot: each return
  // evicts the other's entry, so the jit re-installs one per return.
  sim::Iss jit;
  jit.load(asmkit::assemble(kBtcAliasSource, sim::kTextBase));
  ASSERT_TRUE(jit.run(1'000'000, sim::Dispatch::kJit).halted);
  if (const sim::JitRuntime* jr = jit.platform().block_cache()->jit()) {
    EXPECT_GE(jr->stats().btc_inserts, 40u);
  }
}

TEST(FuzzDirected, MidChainInvalidationMatchesStepAtEveryBudget) {
  struct Input {
    std::string name;
    const char* source;
    std::uint32_t o0;  // %o0 at halt
  };
  const Input inputs[] = {
      // 8 iterations alternating the patched immediate between 5 and 9.
      {"mid-chain", kMidChainSource, 4u * 5u + 4u * 9u},
      // 40 iterations, each adding 1 in f1 and 2 in f2.
      {"btc-alias", kBtcAliasSource, 40u * 3u},
  };
  for (const Input& input : inputs) {
    const auto program = asmkit::assemble(input.source, sim::kTextBase);
    const std::string& name = input.name;

    sim::Iss probe;
    probe.load(program);
    const auto full = probe.run(1'000'000, sim::Dispatch::kStep);
    ASSERT_TRUE(full.halted) << name;
    const std::uint64_t total = full.instret;
    EXPECT_EQ(probe.cpu().r[8], input.o0) << name;

    sim::Iss ref;
    sim::Iss dut;
    for (std::uint64_t budget = 1; budget <= total; ++budget) {
      ref.load(program);
      ref.run(budget, sim::Dispatch::kStep);
      for (const auto mode : {sim::Dispatch::kBlock, sim::Dispatch::kJit}) {
        dut.load(program);
        dut.run(budget, mode);
        const std::string where = name + " budget " + std::to_string(budget);
        ASSERT_EQ(dut.cpu().instret, ref.cpu().instret) << where;
        ASSERT_EQ(dut.cpu().pc, ref.cpu().pc) << where;
        ASSERT_EQ(sim::arch_digest(dut.cpu(), dut.bus()),
                  sim::arch_digest(ref.cpu(), ref.bus()))
            << where;
        ASSERT_EQ(dut.counters().counts, ref.counters().counts)
            << "retire vector diverged at " << where;
      }
    }
  }
}

TEST(FuzzDirected, MidChainLoopFlushesPatchedBlock) {
  // Guards the premise of the budget sweep: each store must flush the
  // block it rewrites, so every transition into it morphs afresh.
  sim::Iss iss;
  iss.load(asmkit::assemble(kMidChainSource, sim::kTextBase));
  ASSERT_TRUE(iss.run(1'000'000, sim::Dispatch::kBlock).halted);
  ASSERT_NE(iss.platform().block_cache(), nullptr);
  EXPECT_GT(iss.platform().block_cache()->stats().flushes, 0u);
}

}  // namespace
}  // namespace nfp::fuzz
