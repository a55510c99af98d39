// Differential and unit tests for the superblock morph cache: block
// dispatch must be observably identical to the single-step reference path
// on every workload in the kernel registry, and the cache must stay
// coherent when a program stores into its own code.
#include "sim/block_cache.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "asmkit/assembler.h"
#include "sim/iss.h"
#include "sim/memmap.h"
#include "workloads/kernels.h"

namespace nfp::sim {
namespace {

// Everything a kernel run exposes to an observer: functional results, the
// retire stream totals, and the output region the workloads write.
struct Observed {
  bool halted = false;
  std::uint32_t exit_code = 0;
  std::uint64_t instret = 0;
  std::string uart;
  std::array<std::uint64_t, isa::kOpCount> counts{};
  std::vector<std::uint8_t> output;
};

Observed run_job(const model::KernelJob& job, Dispatch dispatch) {
  Iss iss;
  iss.load(job.program);
  for (const auto& [addr, bytes] : job.inputs) {
    iss.bus().write_block(addr, bytes.data(), bytes.size());
  }
  const auto r = iss.run(2'000'000'000ull, dispatch);
  Observed o;
  o.halted = r.halted;
  o.exit_code = r.exit_code;
  o.instret = r.instret;
  o.uart = iss.bus().uart_output();
  o.counts = iss.counters().counts;
  o.output = iss.bus().read_block(kOutputBase, 64 * 1024);
  return o;
}

const char* mode_name(Dispatch d) {
  return d == Dispatch::kBlock ? "block" : "jit";
}

// Three-way differential: the single-step reference against both
// whole-block modes (chained morph-cache blocks, and the jit, which runs
// kBlock where the host cannot execute emitted code).
// Per-op equality implies per-category equality for any category map.
void expect_identical(const model::KernelJob& job) {
  const auto step = run_job(job, Dispatch::kStep);
  ASSERT_TRUE(step.halted) << job.name;
  for (const auto mode : {Dispatch::kBlock, Dispatch::kJit}) {
    const auto block = run_job(job, mode);
    EXPECT_TRUE(block.halted) << job.name << " " << mode_name(mode);
    EXPECT_EQ(block.exit_code, step.exit_code)
        << job.name << " " << mode_name(mode);
    EXPECT_EQ(block.instret, step.instret)
        << job.name << " " << mode_name(mode);
    EXPECT_EQ(block.uart, step.uart) << job.name << " " << mode_name(mode);
    EXPECT_EQ(block.counts, step.counts)
        << job.name << " " << mode_name(mode);
    EXPECT_EQ(block.output, step.output)
        << job.name << " " << mode_name(mode);
  }
}

TEST(BlockCacheDiff, FseKernelsIdentical) {
  workloads::FseKernelParams params;
  params.iterations = 16;
  params.count = 2;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    const auto jobs = workloads::make_fse_jobs(abi, params);
    for (int k = 0; k < params.count; ++k) expect_identical(jobs[k]);
  }
}

TEST(BlockCacheDiff, FseMinimalCpuConfigIdentical) {
  // Soft-float AND soft-muldiv: the emulation runtime is the branchiest
  // code in the repo, a good stress for block-boundary handling.
  workloads::FseKernelParams params;
  params.iterations = 8;
  params.count = 1;
  const auto jobs = workloads::make_fse_jobs(mcc::FloatAbi::kSoft, params,
                                             mcc::MulDivAbi::kSoft);
  expect_identical(jobs[0]);
}

TEST(BlockCacheDiff, MvcKernelsIdentical) {
  workloads::MvcKernelParams params;
  params.frames = 2;
  params.qps = {32};
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    const auto jobs = workloads::make_mvc_jobs(abi, params);
    // One kernel per decoder configuration.
    for (const std::size_t idx : {0u, 3u, 6u, 9u}) {
      expect_identical(jobs[idx]);
    }
  }
}

TEST(BlockCacheDiff, SobelKernelsIdentical) {
  workloads::SobelKernelParams params;
  params.count = 1;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    expect_identical(workloads::make_sobel_jobs(abi, params)[0]);
  }
}

TEST(BlockCache, MorphsEachBlockOnceNotPerIteration) {
  Iss iss;
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        mov 0, %o0
loop:   add %o0, %l0, %o0
        add %l0, 1, %l0
        cmp %l0, 100
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kBlock);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 4950u);  // sum 0..99
  const auto& stats = iss.platform().block_cache()->stats();
  EXPECT_GE(stats.blocks_morphed, 1u);
  EXPECT_GT(stats.insns_morphed, 0u);
  // 100 iterations retired far more instructions than were ever morphed.
  EXPECT_LT(stats.insns_morphed, r.instret / 10);
  EXPECT_EQ(stats.flushes, 0u);
}

TEST(BlockCache, InstructionBudgetExactMidBlock) {
  // A budget that lands inside a straight-line run must stop at exactly
  // that many instructions in every dispatch mode.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
loop:   add %l0, 1, %l0
        add %l0, 1, %l0
        add %l0, 1, %l0
        ba loop
        nop
)",
                                     kTextBase);
  for (const auto dispatch : {Dispatch::kStep, Dispatch::kBlock}) {
    Iss iss;
    iss.load(prog);
    const auto r = iss.run(1001, dispatch);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.instret, 1001u);
  }
}

TEST(BlockCache, InstructionBudgetExactMidChain) {
  // Two blocks chained into a cycle; sweep budgets so the stop point lands
  // on every phase of the chain — block boundaries, delay slots, and
  // mid-block — and require instret == budget in all dispatch modes.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
loop:   add %l0, 1, %l0
        add %l0, 1, %l0
        ba other
        nop
other:  add %l0, 1, %l0
        add %l0, 1, %l0
        add %l0, 1, %l0
        ba loop
        nop
)",
                                     kTextBase);
  for (std::uint64_t budget = 95; budget <= 105; ++budget) {
    for (const auto dispatch : {Dispatch::kStep, Dispatch::kBlock}) {
      Iss iss;
      iss.load(prog);
      const auto r = iss.run(budget, dispatch);
      EXPECT_FALSE(r.halted) << "budget " << budget;
      EXPECT_EQ(r.instret, budget) << "budget " << budget;
    }
  }
}

TEST(BlockCache, StoreIntoCodeRefreshesBlock) {
  // First pass executes the original "mov 1, %o0", then the program patches
  // that word with the template at `word` (a "mov 7, %o0") and loops. Block
  // dispatch must flush the morphed block and re-morph the patched code.
  Iss iss;
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l7
        set patch, %g1
        set word, %g2
        ld [%g2], %l0
loop:   nop
patch:  mov 1, %o0
        cmp %l7, 1
        be done
        nop
        st %l0, [%g1]
        mov 1, %l7
        ba loop
        nop
done:   ta 0
word:   mov 7, %o0
)",
                                     kTextBase);
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kBlock);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 7u);
  EXPECT_GE(iss.platform().block_cache()->stats().flushes, 1u);
}

TEST(BlockCache, ChainLinksResolveHotLoopEdges) {
  // A two-block cycle: after the first traversal installs the links, every
  // further transition must ride the chain, not lookup().
  Iss iss;
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        mov 0, %o0
loop:   add %o0, %l0, %o0
        add %l0, 1, %l0
        cmp %l0, 100
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kBlock);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 4950u);
  const auto& stats = iss.platform().block_cache()->stats();
  EXPECT_GE(stats.links_installed, 1u);
  // ~100 loop iterations, each a chained re-entry of the loop block.
  EXPECT_GE(stats.chain_hits, 90u);
  EXPECT_LT(stats.lookup_fallbacks, 10u);
  EXPECT_EQ(stats.links_severed, 0u);
}

TEST(BlockCache, BtcResolvesRegisterIndirectReturns) {
  // A call/retl loop: the return's jmpl exit is register-indirect, so its
  // successor must resolve through the branch-target cache.
  Iss iss;
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        mov 0, %o0
loop:   call fn
        nop
        add %l0, 1, %l0
        cmp %l0, 50
        bne loop
        nop
        ta 0
fn:     retl
        add %o0, 2, %o0
)",
                                     kTextBase);
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kBlock);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 100u);
  const auto& stats = iss.platform().block_cache()->stats();
  // 50 returns; all but the first (which misses and seeds the BTC) hit.
  EXPECT_GE(stats.btc_hits, 40u);
  EXPECT_GE(stats.btc_misses, 1u);
  EXPECT_GE(stats.chain_hits, 40u);
}

TEST(BlockCache, StoreFlushesChainedSuccessorAndPredecessorInFlight) {
  // Block X (at `loop`) patches the first word of block B every iteration,
  // then transfers into B; B transfers straight back to X. Once the first
  // traversal installs X->B and B->X, each later store flushes B while X —
  // B's chained predecessor AND successor — is the block in flight. The
  // severed links must force a fresh lookup/morph of B, so each iteration
  // executes the just-patched instruction (the bits toggle between
  // "mov 1, %o1" and "mov 7, %o1"); following a stale trace would add the
  // previous iteration's value and change the sum.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l7
        mov 0, %o0
        set patch, %g1
        ld [%g1], %l0
        set word, %g2
        ld [%g2], %l2
        xor %l0, %l2, %l2
loop:   xor %l0, %l2, %l0
        st %l0, [%g1]
        ba bblk
        nop
bblk:
patch:  mov 1, %o1
        add %o0, %o1, %o0
        cmp %l7, 3
        bne loop
        add %l7, 1, %l7
        ta 0
word:   mov 7, %o1
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kBlock);
  ASSERT_TRUE(r.halted);
  // Patched values seen: 7, 1, 7, 1.
  EXPECT_EQ(r.exit_code, 16u);
  const auto& stats = iss.platform().block_cache()->stats();
  EXPECT_GE(stats.flushes, 3u);
  EXPECT_GE(stats.links_installed, 2u);
  EXPECT_GE(stats.links_severed, 2u);
}

TEST(BlockCache, LookupRejectsMisalignedAndForeignPcs) {
  Iss iss;
  const auto prog = asmkit::assemble(R"(
_start: nop
        ta 0
)",
                                     kTextBase);
  iss.load(prog);
  BlockCache* cache = iss.platform().block_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->lookup(kTextBase + 2), nullptr);
  EXPECT_EQ(cache->lookup(kTextBase - 4), nullptr);
  EXPECT_EQ(cache->lookup(kTextBase + prog.size()), nullptr);
  EXPECT_NE(cache->lookup(kTextBase), nullptr);
}

}  // namespace
}  // namespace nfp::sim
