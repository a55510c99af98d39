// Directed tests for the x86-64 template JIT tier (Dispatch::kJit).
//
// The contract under test is observational equivalence with the single-step
// reference at every granularity the host loop exposes: final state, exact
// mid-run budget stops (including stops that land inside delay slots and
// folded delay instructions), per-op retire vectors, MMIO side effects,
// fault state, and coherence against self-modifying stores that kill the
// very block (or chain) the emitted code is executing.
//
// Every test skips itself on hosts where jit_available() is false — there
// the executor runs the kBlock lookup loop under the kJit label, which the
// fallback test at the bottom still covers.
#include "sim/jit.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asmkit/assembler.h"
#include "board/board.h"
#include "nfp/calibration.h"
#include "nfp/scheme.h"
#include "sim/digest.h"
#include "sim/iss.h"
#include "sim/memmap.h"
#include "support/board_stand.h"
#include "workloads/kernels.h"

namespace nfp::sim {
namespace {

// Full observable state of an Iss after a run (or after a fault: `fault`
// carries the exception message and the rest the reconciled state).
struct Observed {
  bool halted = false;
  std::uint32_t exit_code = 0;
  std::uint64_t instret = 0;
  std::uint32_t pc = 0;
  std::uint32_t npc = 0;
  ArchStateDigest digest{};
  std::array<std::uint64_t, isa::kOpCount> counts{};
  std::string uart;
  std::string fault;
};

Observed run_observed(const asmkit::Program& prog, Dispatch dispatch,
                      std::uint64_t budget = 1'000'000) {
  Iss iss;
  iss.load(prog);
  Observed o;
  try {
    const auto r = iss.run(budget, dispatch);
    o.halted = r.halted;
    o.exit_code = r.exit_code;
  } catch (const std::exception& e) {
    o.fault = e.what();
  }
  o.instret = iss.cpu().instret;
  o.pc = iss.cpu().pc;
  o.npc = iss.cpu().npc;
  o.digest = arch_digest(iss.cpu(), iss.bus());
  o.counts = iss.counters().counts;
  o.uart = iss.bus().uart_output();
  return o;
}

void expect_same(const Observed& step, const Observed& jit,
                 const std::string& what) {
  EXPECT_EQ(step.halted, jit.halted) << what;
  EXPECT_EQ(step.exit_code, jit.exit_code) << what;
  EXPECT_EQ(step.instret, jit.instret) << what;
  EXPECT_EQ(step.pc, jit.pc) << what;
  EXPECT_EQ(step.npc, jit.npc) << what;
  EXPECT_EQ(step.digest.cpu, jit.digest.cpu) << what;
  EXPECT_EQ(step.digest.ram, jit.digest.ram) << what;
  EXPECT_EQ(step.counts, jit.counts) << what;
  EXPECT_EQ(step.uart, jit.uart) << what;
  EXPECT_EQ(step.fault, jit.fault) << what;
}

void expect_step_jit_identical(const asmkit::Program& prog,
                               std::uint64_t budget, const std::string& what) {
  expect_same(run_observed(prog, Dispatch::kStep, budget),
              run_observed(prog, Dispatch::kJit, budget), what);
}

#define SKIP_WITHOUT_JIT()                                       \
  if (!jit_available()) {                                        \
    GTEST_SKIP() << "jit unavailable on this host (covered by "  \
                    "ForcedOffFallsBackToBlock)";                \
  }

// ---- template coverage ----------------------------------------------------

TEST(Jit, AluFlagsShiftsMulIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // Exercises every cc-setting form the templates emit natively (add/sub
  // with and without carry-in, logic, mul) plus all three shifts, across a
  // loop long enough that everything runs from emitted code.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        mov 0, %o0
        sethi %hi(0x12345400), %l4
        or %l4, 0x178, %l4
loop:   addcc %o0, %l4, %o0
        addxcc %o0, %l0, %o0
        subcc %o0, %l0, %o1
        subxcc %o1, 1, %o1
        andcc %o1, %l4, %o2
        orcc %o2, 7, %o2
        xorcc %o2, %o0, %o3
        xnorcc %o3, %l0, %o3
        andncc %o3, %l4, %o4
        orncc %o4, %o1, %o4
        umul %o4, %l4, %o5
        smulcc %o5, 3, %o5
        rd %y, %g2
        xor %o5, %g2, %o5
        wr %g0, %o5, %y
        sll %o5, 3, %g3
        srl %o5, 5, %g4
        sra %o5, 7, %g5
        add %g3, %g4, %g3
        add %g3, %g5, %o0
        add %l0, 1, %l0
        cmp %l0, 500
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  expect_step_jit_identical(prog, 1'000'000, "alu-flags");
}

TEST(Jit, ConditionalBranchesAllCondsIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // Data-dependent pattern of taken/untaken/annulled branches across every
  // icc condition code, iterated so both sides of each branch compile.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        mov 0, %o0
        sethi %hi(0x9E370000), %l4
        or %l4, 0x3F1, %l4
loop:   umul %l0, %l4, %l1
        addcc %l1, %l4, %l1
        be,a t1
        add %o0, 1, %o0
t1:     bne t2
        add %o0, 2, %o0
t2:     bcs,a t3
        add %o0, 4, %o0
t3:     bcc t4
        add %o0, 8, %o0
t4:     bneg t5
        add %o0, 16, %o0
t5:     bpos,a t6
        add %o0, 32, %o0
t6:     bvs t7
        add %o0, 64, %o0
t7:     bvc,a t8
        add %o0, 128, %o0
t8:     bg t9
        add %o0, 256, %o0
t9:     ble,a t10
        add %o0, 512, %o0
t10:    bge t11
        add %o0, 1024, %o0
t11:    bl,a t12
        add %o0, 2048, %o0
t12:    bgu t13
        add %o0, 4095, %o0
t13:    bleu,a t14
        add %o0, 1023, %o0
t14:    ba,a t15
        add %o0, 33, %o0
t15:    add %l0, 1, %l0
        cmp %l0, 300
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  expect_step_jit_identical(prog, 1'000'000, "bicc-conds");
}

TEST(Jit, LoadsStoresAllWidthsIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %g1
        set 0x9E3779B1, %g7
        mov 0, %l0
        mov 0, %o0
loop:   umul %l0, %g7, %l1
        st %l1, [%g1]
        sth %l1, [%g1 + 4]
        stb %l1, [%g1 + 6]
        std %l0, [%g1 + 8]
        ld [%g1], %o1
        lduh [%g1 + 4], %o2
        ldsh [%g1 + 4], %o3
        ldub [%g1 + 6], %o4
        ldsb [%g1 + 6], %o5
        ldd [%g1 + 8], %g2
        add %o1, %o2, %o1
        add %o1, %o3, %o1
        add %o1, %o4, %o1
        add %o1, %o5, %o1
        add %o1, %g2, %o1
        add %o1, %g3, %o1
        xor %o0, %o1, %o0
        add %l0, 1, %l0
        cmp %l0, 400
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  expect_step_jit_identical(prog, 1'000'000, "mem-widths");
}

TEST(Jit, CallJmplUartMmioIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // call/retl pairs (jmpl exits re-enter via the host), a UART store per
  // iteration (MMIO goes through the generic helper), and an instret MMIO
  // read mid-block (the helper must expose exact mid-block instret).
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        mov 0, %o0
        set 0x80000000, %l5
        set 0x80000108, %l6
loop:   call fn
        nop
        ld [%l6], %l2
        xor %o0, %l2, %o0
        and %l0, 63, %l3
        add %l3, 48, %l3
        st %l3, [%l5]
        add %l0, 1, %l0
        cmp %l0, 200
        bne loop
        nop
        ta 0
fn:     retl
        add %o0, 3, %o0
)",
                                     kTextBase);
  expect_step_jit_identical(prog, 1'000'000, "call-jmpl-mmio");
}

TEST(Jit, KernelWorkloadsIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // Real compiled workloads, both ABIs: hard-float kernels exercise the
  // FPU-rejection fallback (exec_block inside a kJit run), soft-float the
  // branchiest emulation code in the repo.
  workloads::SobelKernelParams params;
  params.count = 1;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    const auto job = workloads::make_sobel_jobs(abi, params)[0];
    Iss step, jit;
    for (auto* iss : {&step, &jit}) {
      iss->load(job.program);
      for (const auto& [addr, bytes] : job.inputs) {
        iss->bus().write_block(addr, bytes.data(), bytes.size());
      }
    }
    const auto rs = step.run(2'000'000'000ull, Dispatch::kStep);
    const auto rj = jit.run(2'000'000'000ull, Dispatch::kJit);
    ASSERT_TRUE(rs.halted && rj.halted) << job.name;
    EXPECT_EQ(rs.exit_code, rj.exit_code) << job.name;
    EXPECT_EQ(rs.instret, rj.instret) << job.name;
    EXPECT_EQ(step.counters().counts, jit.counters().counts) << job.name;
    const auto ds = arch_digest(step.cpu(), step.bus());
    const auto dj = arch_digest(jit.cpu(), jit.bus());
    EXPECT_EQ(ds.cpu, dj.cpu) << job.name;
    EXPECT_EQ(ds.ram, dj.ram) << job.name;
  }
}

TEST(Jit, FpuBlocksCompileNativeAndMatchStep) {
  SKIP_WITHOUT_JIT();
  // A loop mixing FPU arithmetic, fcmp/fbfcc, and integer bookkeeping: every
  // block compiles to SSE2 templates and runs without the helper (no
  // result is a NaN), bit-identical to stepping.
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %g1
        set 0x3FC00000, %l1
        st %l1, [%g1]
        set 0x3E800000, %l2
        st %l2, [%g1 + 4]
        ldf [%g1], %f0
        ldf [%g1 + 4], %f1
        mov 0, %l0
loop:   fadds %f0, %f1, %f2
        fmuls %f2, %f1, %f3
        fsubs %f2, %f3, %f0
        fcmps %f0, %f1
        nop
        fbl skip
        nop
        fadds %f0, %f0, %f0
skip:   add %l0, 1, %l0
        cmp %l0, 50
        bne loop
        nop
        stf %f0, [%g1 + 8]
        ld [%g1 + 8], %o0
        ta 0
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  const JitRuntime* jr = iss.platform().block_cache()->jit();
  ASSERT_NE(jr, nullptr);
  EXPECT_GE(jr->stats().blocks_compiled, 3u);
  EXPECT_EQ(jr->stats().blocks_rejected, 0u);
  EXPECT_EQ(jr->stats().helper_exec, 0u);
  expect_step_jit_identical(prog, 1'000'000, "fpu-native");
}

// ---- budget exactness -----------------------------------------------------

TEST(Jit, BudgetExactAtEveryChainPhase) {
  SKIP_WITHOUT_JIT();
  // Two blocks in a cycle, budgets swept so the stop lands on block
  // boundaries, mid-block, and inside the folded delay instruction of the
  // taken `ba`. instret must equal the budget exactly, and the resumed
  // run must finish with the same state as an unbounded one.
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
    Iss iss;
    iss.load(prog);
    const auto r = iss.run(budget, Dispatch::kJit);
    EXPECT_FALSE(r.halted) << "budget " << budget;
    EXPECT_EQ(r.instret, budget) << "budget " << budget;
    // Resume for a fixed tail and cross-check against an uninterrupted
    // step run with the same total: split points must be invisible.
    iss.run(50, Dispatch::kJit);
    Iss ref;
    ref.load(prog);
    ref.run(budget + 50, Dispatch::kStep);
    EXPECT_EQ(iss.cpu().instret, ref.cpu().instret) << "budget " << budget;
    EXPECT_EQ(iss.cpu().pc, ref.cpu().pc) << "budget " << budget;
    EXPECT_EQ(iss.cpu().npc, ref.cpu().npc) << "budget " << budget;
    EXPECT_EQ(iss.cpu().r, ref.cpu().r) << "budget " << budget;
  }
}

// ---- self-modification and chain invalidation -----------------------------

TEST(Jit, SelfModifyingStoreRecompilesBlock) {
  SKIP_WITHOUT_JIT();
  // The program patches an instruction in its own (compiled) code and
  // loops back through it: the emitted store must invalidate the block —
  // and its native code — before the next entry.
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
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 7u);
  EXPECT_GE(iss.platform().block_cache()->stats().flushes, 1u);
  expect_step_jit_identical(prog, 1'000'000, "self-modify");
}

TEST(Jit, StoreIntoFoldedDelaySlotRecompilesBlock) {
  SKIP_WITHOUT_JIT();
  // `slot` only ever runs as the delay slot of `ba body`, so no morphed
  // trace covers it; but the compiled loop block folds it into its native
  // code. A store into it must still flush that block: after the patch the
  // loop adds 10 per pass instead of 1 (1 + 1 + 10 + 10 = 22).
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l7
        mov 0, %o0
        set slot, %g1
        set word, %g2
        ld [%g2], %l0
loop:   add %l7, 1, %l7
        ba body
slot:   add %o0, 1, %o0
body:   cmp %l7, 2
        bne check
        nop
        st %l0, [%g1]
check:  cmp %l7, 4
        bne loop
        nop
        ta 0
word:   add %o0, 10, %o0
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 22u);
  EXPECT_GE(iss.platform().block_cache()->stats().flushes, 1u);
  expect_step_jit_identical(prog, 1'000'000, "folded delay slot");
}

TEST(Jit, FullArenaIsReclaimed) {
  SKIP_WITHOUT_JIT();
  // Every pass stores over the loop's first word, which flushes the
  // 200-instruction loop block and compiles it afresh on the next pass. The
  // passes emit more code than one arena holds, so the arena fills up; it
  // must be reclaimed and compiling must go on, with no block rejected.
  constexpr int kPasses = 10000;
  std::string body;
  for (int i = 0; i < 200; ++i) body += "        add %o0, 1, %o0\n";
  const auto prog = asmkit::assemble(R"(
_start: set loop, %g1
        ld [%g1], %l0
        mov 0, %o0
        set )" + std::to_string(kPasses) + R"(, %l7
loop:   st %l0, [%g1]
)" + body + R"(        subcc %l7, 1, %l7
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(10'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 200u * kPasses);
  const JitRuntime* jit = iss.platform().block_cache()->jit();
  ASSERT_NE(jit, nullptr);
  EXPECT_GT(jit->stats().code_bytes, std::uint64_t{16} << 20);
  EXPECT_EQ(jit->stats().blocks_rejected, 0u);
  expect_step_jit_identical(prog, 10'000'000, "arena reclaim");
}

TEST(Jit, MidChainInvalidationUnpatchesBothSides) {
  SKIP_WITHOUT_JIT();
  // Block X patches block B's first word, then jumps into B; B jumps back
  // to X. Once X->B and B->X are patched into the emitted code, each store
  // kills B while X — B's native predecessor AND successor — is the block
  // in flight. A stale patched jump in either direction executes the old
  // "mov" bits and changes the sum.
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
  const auto r = iss.run(1'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 16u);  // patched values seen: 7, 1, 7, 1
  expect_step_jit_identical(prog, 1'000'000, "mid-chain-invalidation");
}

TEST(Jit, EmittedChainingKeepsHotLoopNative) {
  SKIP_WITHOUT_JIT();
  // Once the two-block cycle is patched, re-entries into the host loop
  // must stop: a long run should show a handful of native entries, not one
  // per iteration.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %l0
        set 100000, %l1
loop:   add %l0, 1, %l0
        cmp %l0, %l1
        bne other
        nop
        ta 0
other:  ba loop
        nop
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(10'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  const JitRuntime* jr = iss.platform().block_cache()->jit();
  ASSERT_NE(jr, nullptr);
  EXPECT_GE(jr->stats().patches, 1u);
  EXPECT_LT(jr->stats().entries, 64u)
      << "hot cycle kept bouncing back into the host loop";
}

// ---- inline branch-target cache (register-indirect exits) -----------------

TEST(Jit, InlineBtcKeepsCallReturnLoopNative) {
  SKIP_WITHOUT_JIT();
  // call/retl hot loop: the retl's register-indirect exit must stay native
  // once the inline BTC memoizes the return target — a long run shows a
  // handful of host entries and a hit count close to the iteration count,
  // with results bit-identical to stepping.
  const auto prog = asmkit::assemble(R"(
_start: mov 0, %o0
        set 50000, %l1
loop:   call fn
        nop
        subcc %l1, 1, %l1
        bne loop
        nop
        ta 0
fn:     retl
        add %o0, 1, %o0
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(10'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  const JitRuntime* jr = iss.platform().block_cache()->jit();
  ASSERT_NE(jr, nullptr);
  EXPECT_GE(jr->stats().btc_inserts, 1u);
  EXPECT_GT(jr->inline_btc_hits(), 10'000u);
  EXPECT_LT(jr->stats().entries, 64u)
      << "indirect exits kept bouncing back into the host loop";
  expect_step_jit_identical(prog, 10'000'000, "inline-btc");
}

TEST(Jit, InlineBtcAliasingReturnSitesStayCorrect) {
  SKIP_WITHOUT_JIT();
  // Two call sites whose return addresses are 2048 bytes apart — exactly
  // kInlineBtcEntries slots at word granularity — so both returns hash to
  // the same direct-mapped BTC slot. Each return evicts the other's entry;
  // the probe must miss (tag mismatch), fall back to the host, and never
  // jump to the aliased target.
  std::string src = R"(
_start: mov 0, %o0
        set 2000, %l1
loop:   call fn
        nop
)";
  // 510 nops + the call's own two words put the second return site exactly
  // 512 words past the first.
  for (int i = 0; i < 510; ++i) src += "        nop\n";
  src += R"(
        call fn
        nop
        subcc %l1, 1, %l1
        bne loop
        nop
        ta 0
fn:     retl
        add %o0, 1, %o0
)";
  const auto prog = asmkit::assemble(src, kTextBase);
  {
    Iss iss;
    iss.load(prog);
    const auto r = iss.run(10'000'000, Dispatch::kJit);
    ASSERT_TRUE(r.halted);
    const JitRuntime* jr = iss.platform().block_cache()->jit();
    ASSERT_NE(jr, nullptr);
    // Both sites resolve through the host and re-install the shared slot.
    EXPECT_GE(jr->stats().btc_inserts, 2u);
  }
  expect_step_jit_identical(prog, 10'000'000, "inline-btc-aliasing");
}

// ---- native coverage: Table II, code in .data, FPU edge values ------------

// Runs one board stand per dispatch mode in lockstep slices and requires
// the block and jit stands to match the stepping one at every slice end,
// the whole ledger state included. Slices of 1..37 instructions stop
// native runs at every offset of a short loop; every seventh slice is long
// enough to chain natively through several iterations. Returns the jit
// stand's runtime stats (all zero when no runtime was built).
JitRuntime::Stats expect_sliced_modes_identical(const asmkit::Program& prog,
                                                const board::BoardConfig& cfg,
                                                const std::string& what) {
  test::BoardStand step(prog, cfg);
  test::BoardStand block(prog, cfg);
  test::BoardStand jit(prog, cfg);
  for (std::uint64_t k = 0; !step.platform.cpu().halted; ++k) {
    const std::uint64_t slice = k % 7 == 6 ? 150 : 1 + (k * 11) % 37;
    EXPECT_EQ(step.run(slice, Dispatch::kStep), "") << what;
    EXPECT_EQ(block.run(slice, Dispatch::kBlock), "") << what;
    EXPECT_EQ(jit.run(slice, Dispatch::kJit), "") << what;
    EXPECT_TRUE(test::same_state(step, block)) << what << ", kBlock slice " << k;
    EXPECT_TRUE(test::same_state(step, jit)) << what << ", kJit slice " << k;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_TRUE(jit.platform.cpu().halted) << what;
  const JitRuntime* jr = jit.platform.block_cache()->jit();
  return jr != nullptr ? jr->stats() : JitRuntime::Stats{};
}

// Runs `prog` on a board for `first` instructions, snapshots it, restores
// the snapshot into a second board and runs that to the end; returns the
// final snapshot. Equal across dispatch modes when a resume is faithful.
std::string resumed_snapshot(const asmkit::Program& prog, std::uint64_t first,
                             Dispatch dispatch) {
  board::Board a(test::quiet_meter_config());
  a.load(prog);
  a.run(first, dispatch);
  std::stringstream mid;
  a.save_state(mid);
  board::Board b(test::quiet_meter_config());
  b.restore_state(mid);
  EXPECT_TRUE(b.run(board::Board::kDefaultMaxInsns, dispatch).halted);
  std::stringstream end;
  b.save_state(end);
  return end.str();
}

TEST(Jit, TableTwoKernelsRunNative) {
  SKIP_WITHOUT_JIT();
  // Every Table-II test kernel of the paper's scheme runs on a default
  // board from emitted code alone: no block is rejected (the FPU kernels
  // compile to SSE2 templates) and no record takes the helper (the store
  // kernel's stores to static data miss the text-only store guard). The
  // ledger state must equal stepping's. A shorter loop than the default
  // plan keeps the stepping reference quick; the kernel bodies are the
  // calibration's own.
  model::CalibrationPlan plan;
  plan.loops = 2'000;
  const model::Calibrator cal(plan);
  const model::CategoryScheme& scheme = model::CategoryScheme::paper();
  for (std::size_t c = 0; c < scheme.size(); ++c) {
    const std::string& name = scheme.category_name(c);
    const auto prog =
        asmkit::assemble(cal.make_kernels(name).test_asm, kTextBase);
    test::BoardStand step(prog, board::BoardConfig{});
    test::BoardStand jit(prog, board::BoardConfig{});
    ASSERT_EQ(step.run(board::Board::kDefaultMaxInsns, Dispatch::kStep), "");
    ASSERT_EQ(jit.run(board::Board::kDefaultMaxInsns, Dispatch::kJit), "");
    EXPECT_TRUE(jit.platform.cpu().halted) << name;
    EXPECT_TRUE(test::same_state(step, jit)) << name;
    const JitRuntime* jr = jit.platform.block_cache()->jit();
    ASSERT_NE(jr, nullptr) << name;
    EXPECT_GE(jr->stats().blocks_compiled, 1u) << name;
    EXPECT_EQ(jr->stats().blocks_rejected, 0u) << name;
    EXPECT_EQ(jr->stats().helper_exec, 0u) << name;
  }
}

TEST(Jit, CodeInDataSingleStepsIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // The text copies a three-word routine into its .data, calls it there,
  // flips the immediate of its first word and calls it again, 30 times.
  // The decode and block caches span the text only, so the routine
  // single-steps with a fresh decode from RAM in every mode and each call
  // sees the latest patch; the stores that write and patch it touch no
  // cached code and flush nothing.
  const auto prog = asmkit::assemble(R"(
_start: set code, %l0
        set tmpl, %l1
        ld [%l1], %l2
        st %l2, [%l0]
        ld [%l1 + 4], %l2
        st %l2, [%l0 + 4]
        ld [%l1 + 8], %l2
        st %l2, [%l0 + 8]
        mov 0, %o0
        mov 30, %l5
loop:   call code
        add %o0, %l5, %o0
        ld [%l0], %l2
        xor %l2, 5, %l2
        st %l2, [%l0]
        subcc %l5, 1, %l5
        bne loop
        sll %o0, 1, %o0
        ta 0
tmpl:   add %o0, 3, %o0
        retl
        xor %o0, %l5, %o0
        .data
        .align 8
code:   .word 0, 0, 0
)",
                                     kTextBase);
  const std::uint32_t code = prog.symbol("code");
  ASSERT_GE(code, prog.text_end());

  const JitRuntime::Stats stats = expect_sliced_modes_identical(
      prog, test::quiet_meter_config(), "code-in-data");
  EXPECT_GE(stats.blocks_compiled, 1u);
  EXPECT_EQ(stats.helper_exec, 0u);

  board::Board brd(test::quiet_meter_config());
  brd.load(prog);
  ASSERT_TRUE(brd.run(board::Board::kDefaultMaxInsns, Dispatch::kJit).halted);
  BlockCache* bc = brd.platform().block_cache();
  EXPECT_FALSE(bc->covers_code(code));
  EXPECT_EQ(bc->lookup(code), nullptr);
  EXPECT_EQ(bc->stats().flushes, 0u);
  EXPECT_EQ(brd.platform().decode_cache().size(), prog.text_size() / 4);

  // A mid-run snapshot (taken inside the patch loop) resumes identically.
  const std::string want = resumed_snapshot(prog, 97, Dispatch::kStep);
  EXPECT_EQ(resumed_snapshot(prog, 97, Dispatch::kBlock), want);
  EXPECT_EQ(resumed_snapshot(prog, 97, Dispatch::kJit), want);
}

TEST(Jit, FpuEdgeValuesIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // Eight passes over a pool of edge operands, each pass shifted one
  // double (and one single) along it: NaNs (quiet, signalling, negative
  // with payload), ±inf, the smallest denormals, -0, ±2^31 and 2^31 - 1,
  // and ordinary values. Every templated FPU op sees them: NaN results
  // (0/0, inf - inf, sqrt of a negative, NaN operands) and fdtoi/fstoi
  // sentinels (NaN, ±2^31, out of range) leave through the helper, the
  // rest (inf results, denormals, -0 arithmetic, compares that come out
  // equal, less, greater and unordered) stay native. Doubles in %f30/%f31 and the wrapping
  // %f31/%f0 pair are read and written. Results go to RAM and the cpu's
  // FP file; the stands compare both, the fcc and the ledger.
  const auto prog = asmkit::assemble(R"(
_start: set dpool, %l0
        set spool, %l1
        set out, %l2
        mov 8, %l3
        mov 0, %o1
loop:   lddf [%l0], %f0
        lddf [%l0 + 8], %f2
        lddf [%l0 + 16], %f4
        lddf [%l0 + 24], %f30
        ldf [%l1], %f6
        ldf [%l1 + 4], %f7
        ldf [%l1 + 8], %f8
        faddd %f0, %f2, %f10
        fsubd %f2, %f4, %f12
        fmuld %f0, %f4, %f14
        fdivd %f2, %f0, %f16
        fsqrtd %f4, %f18
        faddd %f30, %f2, %f20
        fmuld %f31, %f30, %f22
        fdtoi %f0, %f24
        fdtoi %f30, %f25
        fdtoi %f31, %f26
        fadds %f6, %f7, %f9
        fsubs %f7, %f8, %f11
        fmuls %f6, %f8, %f13
        fdivs %f7, %f6, %f15
        fsqrts %f8, %f17
        fstoi %f6, %f19
        fstoi %f8, %f21
        fitos %f19, %f23
        fitod %f24, %f26
        fstod %f7, %f28
        fdtos %f2, %f27
        fmovs %f6, %f29
        fnegs %f7, %f5
        fabss %f8, %f3
        stdf %f10, [%l2]
        stdf %f12, [%l2 + 8]
        stdf %f14, [%l2 + 16]
        stdf %f16, [%l2 + 24]
        stdf %f18, [%l2 + 32]
        stdf %f20, [%l2 + 40]
        stdf %f22, [%l2 + 48]
        stf %f9, [%l2 + 56]
        stf %f11, [%l2 + 60]
        stf %f24, [%l2 + 64]
        stf %f25, [%l2 + 68]
        fcmpd %f0, %f2
        nop
        fbu unord
        nop
        add %o1, 1, %o1
unord:  fcmps %f6, %f7
        nop
        fbe equal
        nop
        add %o1, 16, %o1
equal:  fcmpd %f31, %f4
        nop
        fbug above
        nop
        add %o1, 256, %o1
above:  fcmpd %f2, %f2
        nop
        fbne self
        nop
        add %o1, 4095, %o1
self:   fitod %f25, %f31
        fsqrtd %f31, %f0
        fdtos %f31, %f1
        fstod %f1, %f31
        stdf %f30, [%l2 + 72]
        add %l0, 8, %l0
        add %l1, 4, %l1
        subcc %l3, 1, %l3
        bne loop
        add %l2, 80, %l2
        mov %o1, %o0
        ta 0
        .data
        .align 8
dpool:  .word 0x7ff80000, 0x00000000   ! quiet NaN
        .word 0x41e00000, 0x00000000   ! 2^31
        .word 0xc1e00000, 0x00000000   ! -2^31
        .word 0x80000000, 0x00000000   ! -0
        .word 0x7ff00000, 0x00000000   ! +inf
        .word 0x00000000, 0x00000001   ! smallest denormal
        .word 0xfff00000, 0x00000000   ! -inf
        .word 0x41dfffff, 0xffc00000   ! 2^31 - 1
        .word 0xbff80000, 0x00000000   ! -1.5
        .word 0xfff40000, 0x00000001   ! negative signalling NaN
        .word 0x00000000, 0x00000000   ! +0
        .word 0x800fffff, 0xffffffff   ! largest negative denormal
spool:  .word 0x7fc00000               ! quiet NaN
        .word 0x4f000000               ! 2^31
        .word 0x80000000               ! -0
        .word 0x00000000               ! +0
        .word 0x7f800000               ! +inf
        .word 0x00000001               ! smallest denormal
        .word 0xff800001               ! negative signalling NaN
        .word 0xcf000000               ! -2^31
        .word 0x3fc00000               ! 1.5
        .word 0xff800000               ! -inf
        .word 0x40400000               ! 3
        .align 8
out:    .skip 640
)",
                                     kTextBase);
  board::BoardConfig cached = test::quiet_meter_config();
  cached.enable_cache = true;
  cached.cache_lines = 16;
  board::BoardConfig flat = test::quiet_meter_config();
  flat.enable_variation = false;
  const JitRuntime::Stats loud = expect_sliced_modes_identical(
      prog, test::quiet_meter_config(), "fpu-edge");
  EXPECT_GE(loud.blocks_compiled, 4u);
  EXPECT_EQ(loud.blocks_rejected, 0u);
  EXPECT_GT(loud.helper_exec, 0u);  // the NaN and sentinel records
  // A cached board still refuses the blocks holding loads.
  EXPECT_GT(expect_sliced_modes_identical(prog, cached, "fpu-edge cached")
                .blocks_rejected,
            0u);
  expect_sliced_modes_identical(prog, flat, "fpu-edge flat");
  expect_step_jit_identical(prog, 1'000'000, "fpu-edge iss");
}

TEST(Jit, FpuNanAndSentinelResultsTakeHelper) {
  SKIP_WITHOUT_JIT();
  // Which NaN a result carries is the interpreters' choice (pinned in C++
  // by nan_from_operands), and to_int32 saturates where cvttsd2si returns
  // 0x80000000: exactly those records leave through the helper, before
  // writing anything. Four per pass here (a NaN sum, the square root of
  // -1, fdtoi of a NaN and of 2^31); fdtoi of 2^31 - 1, ordinary
  // arithmetic and an unordered compare stay native.
  const auto prog = asmkit::assemble(R"(
_start: set pool, %l0
        lddf [%l0], %f0
        lddf [%l0 + 8], %f2
        lddf [%l0 + 16], %f4
        lddf [%l0 + 24], %f6
        lddf [%l0 + 32], %f8
        mov 10, %l1
loop:   faddd %f0, %f2, %f10
        fsqrtd %f4, %f12
        fdtoi %f0, %f14
        fdtoi %f6, %f15
        fdtoi %f8, %f16
        faddd %f2, %f2, %f18
        fcmpd %f0, %f2
        fdivd %f2, %f4, %f20
        subcc %l1, 1, %l1
        bne loop
        nop
        ld [%l0], %o0
        ta 0
        .data
        .align 8
pool:   .word 0x7ff80000, 0x00000123   ! NaN with a payload
        .word 0x3ff00000, 0x00000000   ! 1
        .word 0xbff00000, 0x00000000   ! -1
        .word 0x41e00000, 0x00000000   ! 2^31
        .word 0x41dfffff, 0xffc00000   ! 2^31 - 1
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  ASSERT_TRUE(iss.run(1'000'000, Dispatch::kJit).halted);
  const JitRuntime* jr = iss.platform().block_cache()->jit();
  ASSERT_NE(jr, nullptr);
  EXPECT_EQ(jr->stats().blocks_rejected, 0u);
  EXPECT_EQ(jr->stats().helper_exec, 40u);
  expect_step_jit_identical(prog, 1'000'000, "fpu-nan-rule");
}

TEST(Jit, TwoNanOperandsPropagateRs1InEveryMode) {
  SKIP_WITHOUT_JIT();
  // With NaNs in both operands every mode returns rs1's NaN, quieted (a
  // signalling rs1 gains its quiet bit). The compiled C++ of the two
  // interpreters once disagreed here: a commutative add or mul of singles
  // returned rs2's NaN when stepping and rs1's from a morphed block.
  const auto prog = asmkit::assemble(R"(
_start: set pool, %l0
        ldf [%l0], %f0
        ldf [%l0 + 4], %f1
        ldf [%l0 + 8], %f2
        lddf [%l0 + 16], %f4
        lddf [%l0 + 24], %f6
        fadds %f0, %f1, %f8
        fmuls %f1, %f0, %f9
        fsubs %f2, %f0, %f10
        fdivs %f0, %f2, %f11
        faddd %f4, %f6, %f12
        fmuld %f6, %f4, %f14
        fsubd %f4, %f6, %f16
        fdivd %f6, %f4, %f18
        ta 0
        .data
        .align 8
pool:   .word 0x7fc00001, 0xffc00002, 0x7f800003, 0
        .word 0x7ff80000, 0x00000001, 0xfff40000, 0x00000002
)",
                                     kTextBase);
  const std::array<std::uint32_t, 12> want = {
      0x7fc00001, 0xffc00002, 0x7fc00003, 0x7fc00001,  // %f8..%f11
      0x7ff80000, 0x00000001, 0xfffc0000, 0x00000002,  // %f12..%f15
      0x7ff80000, 0x00000001, 0xfffc0000, 0x00000002,  // %f16..%f19
  };
  for (const Dispatch d : {Dispatch::kStep, Dispatch::kBlock, Dispatch::kJit}) {
    Iss iss;
    iss.load(prog);
    ASSERT_TRUE(iss.run(1'000, d).halted);
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(iss.cpu().f[8 + k], want[k])
          << "%f" << 8 + k << " under dispatch " << static_cast<int>(d);
    }
  }
}

// ---- faults ---------------------------------------------------------------

TEST(Jit, DivisionByZeroFaultStateIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // Warm the block up with valid divisors first so the fault happens from
  // compiled code, then divide by zero: message, pc/npc, instret, and the
  // partial retire vector must match the stepping reference exactly.
  const auto prog = asmkit::assemble(R"(
_start: mov 8, %l0
        mov 100, %o0
loop:   udiv %o0, %l0, %o1
        add %o1, %o0, %o0
        sub %l0, 1, %l0
        cmp %l0, -1
        bne loop
        nop
        ta 0
)",
                                     kTextBase);
  const auto step = run_observed(prog, Dispatch::kStep);
  ASSERT_FALSE(step.fault.empty()) << "expected a division fault";
  expect_same(step, run_observed(prog, Dispatch::kJit), "div-zero");
}

TEST(Jit, MisalignedAccessFaultStateIdenticalToStep) {
  SKIP_WITHOUT_JIT();
  // The address walks 4, 2, 1, 0 byte strides: the first genuinely
  // misaligned word access must fault out of compiled code with the exact
  // stepping state (the emitted alignment guard routes it to the helper,
  // which rethrows the interpreter's own SimError).
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %g1
        mov 4, %l0
        mov 0, %o0
loop:   ld [%g1], %o1
        add %o0, %o1, %o0
        add %g1, %l0, %g1
        srl %l0, 1, %l0
        ba loop
        nop
)",
                                     kTextBase);
  const auto step = run_observed(prog, Dispatch::kStep);
  ASSERT_FALSE(step.fault.empty()) << "expected an alignment fault";
  expect_same(step, run_observed(prog, Dispatch::kJit), "misalign");
}

// ---- hoisted address checks: the miss path --------------------------------

// What a board run leaves that a dispatch mode could get wrong.
struct BoardObserved {
  std::string fault;
  std::uint64_t instret = 0;
  std::uint32_t pc = 0;
  std::uint64_t cycles = 0;
  std::uint64_t energy_bits = 0;
  board::EventCounters events{};
  std::array<std::uint64_t, isa::kOpCount> counts{};
  std::uint64_t guard_misses = 0;  // kJit only
};

BoardObserved run_board_observed(const asmkit::Program& prog,
                                 Dispatch dispatch) {
  board::Board brd(test::quiet_meter_config());
  brd.load(prog);
  BoardObserved o;
  try {
    brd.run(1'000'000, dispatch);
  } catch (const std::exception& e) {
    o.fault = e.what();
  }
  o.instret = brd.cpu().instret;
  o.pc = brd.cpu().pc;
  o.cycles = brd.cycles();
  o.energy_bits = std::bit_cast<std::uint64_t>(brd.true_energy_nj());
  o.events = brd.events();
  o.counts = brd.op_counts();
  if (const JitRuntime* jr = brd.platform().block_cache()->jit()) {
    o.guard_misses = jr->stats().guard_misses;
  }
  return o;
}

// The functional simulator and the board under kJit against kStep: state,
// counts, instret and fault, and on the board cycles, energy bits and
// events. Both jit runs must have taken the miss path at least `misses`
// times (the check under test really was hoisted and really failed).
void expect_guard_miss_identical(const asmkit::Program& prog,
                                 std::uint64_t misses,
                                 const std::string& what) {
  expect_step_jit_identical(prog, 1'000'000, what);
  Iss iss;
  iss.load(prog);
  try {
    iss.run(1'000'000, Dispatch::kJit);
  } catch (const std::exception&) {
  }
  const JitRuntime* jr = iss.platform().block_cache()->jit();
  ASSERT_NE(jr, nullptr) << what;
  EXPECT_GE(jr->stats().guard_misses, misses) << what;

  const BoardObserved step = run_board_observed(prog, Dispatch::kStep);
  const BoardObserved jit = run_board_observed(prog, Dispatch::kJit);
  EXPECT_EQ(step.fault, jit.fault) << what;
  EXPECT_EQ(step.instret, jit.instret) << what;
  EXPECT_EQ(step.pc, jit.pc) << what;
  EXPECT_EQ(step.cycles, jit.cycles) << what;
  EXPECT_EQ(step.energy_bits, jit.energy_bits) << what;
  EXPECT_EQ(step.events, jit.events) << what;
  EXPECT_EQ(step.counts, jit.counts) << what;
  EXPECT_GE(jit.guard_misses, misses) << what;
}

TEST(Jit, HoistedCheckMissOnMisalignedBase) {
  SKIP_WITHOUT_JIT();
  // fn's two loads share one prologue check on %o0. Forty calls pass it;
  // the last call's %o0 is 2 bytes off, so the check fails and the block
  // runs through the interpreter, whose first load faults.
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %l0
        mov 0, %l1
        mov 0, %l2
loop:   st %l1, [%l0]
        mov %l0, %o0
        call fn
        nop
        add %l2, %o0, %l2
        add %l0, 8, %l0
        add %l1, 1, %l1
        cmp %l1, 40
        bne loop
        nop
        add %l0, 2, %o0
        call fn
        nop
        mov %l2, %o0
        ta 0
fn:     ld [%o0], %o1
        ld [%o0 + 4], %o2
        retl
        add %o1, %o2, %o0
)",
                                     kTextBase);
  ASSERT_NE(run_observed(prog, Dispatch::kStep).fault.find("misaligned"),
            std::string::npos);
  expect_guard_miss_identical(prog, 1, "misaligned base");
}

TEST(Jit, HoistedCheckMissOnDoublewordBaseNotEightAligned) {
  SKIP_WITHOUT_JIT();
  // ldd/std through a base that is 8-aligned on forty calls and only
  // 4-aligned on the last: the check's alignment is the widest access's.
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %l0
        mov 0, %l1
loop:   st %l1, [%l0]
        st %l1, [%l0 + 4]
        mov %l0, %o0
        call fn
        nop
        add %l0, 16, %l0
        add %l1, 1, %l1
        cmp %l1, 40
        bne loop
        nop
        add %l0, 4, %o0
        call fn
        nop
        ta 0
fn:     ldd [%o0], %o2
        std %o2, [%o0 + 8]
        retl
        nop
)",
                                     kTextBase);
  ASSERT_FALSE(run_observed(prog, Dispatch::kStep).fault.empty());
  expect_guard_miss_identical(prog, 1, "ldd/std base 4-aligned");
}

TEST(Jit, HoistedCheckMissOnRangeCrossingRamEnd) {
  SKIP_WITHOUT_JIT();
  // The last call's base is kRamEnd - 8: fn's first load is still in RAM
  // (the interpreter runs it) and its second, at kRamEnd, faults.
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %l0
        mov 0, %l1
loop:   mov %l0, %o0
        call fn
        nop
        add %l1, 1, %l1
        cmp %l1, 40
        bne loop
        nop
        set 0x40FFFFF8, %o0
        call fn
        nop
        ta 0
fn:     ld [%o0], %o1
        ld [%o0 + 8], %o2
        retl
        add %o1, %o2, %o0
)",
                                     kTextBase);
  ASSERT_FALSE(run_observed(prog, Dispatch::kStep).fault.empty());
  expect_guard_miss_identical(prog, 1, "range crossing kRamEnd");
}

TEST(Jit, HoistedCheckMissOnMmioBase) {
  SKIP_WITHOUT_JIT();
  // put and get alternate between a RAM base and an MMIO one (the UART, the
  // instret register): every MMIO call misses and runs interpreted, which
  // prints the byte and reads the exact mid-block instret.
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %l0
        set 0x80000000, %l5
        set 0x80000108, %l6
        mov 0, %l1
        mov 0, %o3
loop:   and %l1, 15, %o1
        add %o1, 65, %o1
        mov %l0, %o0
        call put
        nop
        mov %l5, %o0
        call put
        nop
        mov %l0, %o0
        call get
        nop
        mov %l6, %o0
        call get
        nop
        add %l1, 1, %l1
        cmp %l1, 40
        bne loop
        nop
        mov %o3, %o0
        ta 0
put:    st %o1, [%o0]
        retl
        nop
get:    ld [%o0], %o2
        retl
        xor %o2, %o3, %o3
)",
                                     kTextBase);
  EXPECT_EQ(run_observed(prog, Dispatch::kStep).uart.size(), 40u);
  expect_guard_miss_identical(prog, 80, "mmio base");
}

TEST(Jit, HoistedCheckMissOnStoreIntoText) {
  SKIP_WITHOUT_JIT();
  // fn stores through a base-relative address. Twenty calls write data;
  // then one writes the word at `patch`, in the text: the check excludes
  // the text, so the block runs interpreted and its store flushes the
  // patched block. Pass two adds 10 per iteration instead of 1.
  const auto prog = asmkit::assemble(R"(
_start: set 0x40100000, %l0
        set patch, %l4
        sub %l4, 4, %l4
        set word, %l6
        ld [%l6], %l7
        mov 0, %l3
        mov 0, %l2
again:  mov 0, %l1
loop:   mov %l0, %o0
        mov %l3, %o1
        call fn
        nop
patch:  add %l3, 1, %l3
        add %l1, 1, %l1
        cmp %l1, 20
        bne loop
        nop
        mov %l4, %o0
        mov %l7, %o1
        call fn
        nop
        add %l2, 1, %l2
        cmp %l2, 2
        bne again
        nop
        mov %l3, %o0
        ta 0
fn:     st %o1, [%o0 + 4]
        retl
        nop
word:   add %l3, 10, %l3
)",
                                     kTextBase);
  Iss iss;
  iss.load(prog);
  const auto r = iss.run(1'000'000, Dispatch::kJit);
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, 220u);
  EXPECT_GE(iss.platform().block_cache()->stats().flushes, 1u);
  expect_guard_miss_identical(prog, 2, "store into text");
}

TEST(Jit, BlockMissingItsCheckOnEveryVisitRunsToTheEnd) {
  SKIP_WITHOUT_JIT();
  // The loop block's only base register points at the UART on every pass:
  // each native entry fails the check and hands the block to the
  // interpreter, which must still make progress to the same end state.
  const auto prog = asmkit::assemble(R"(
_start: set 0x80000000, %l5
        mov 0, %l0
loop:   and %l0, 63, %l3
        add %l3, 48, %l3
        st %l3, [%l5]
        add %l0, 1, %l0
        cmp %l0, 200
        bne loop
        nop
        mov 0, %o0
        ta 0
)",
                                     kTextBase);
  EXPECT_EQ(run_observed(prog, Dispatch::kJit).uart.size(), 200u);
  expect_guard_miss_identical(prog, 199, "miss on every visit");
}

// ---- arena: W^X mapping and lifetime --------------------------------------

// /proc/self/maps, one entry per line.
std::vector<std::string> maps_lines() {
  std::ifstream in("/proc/self/maps");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

std::size_t arena_mappings() {
  std::size_t n = 0;
  for (const auto& line : maps_lines()) {
    if (line.find("memfd:nfp-jit") != std::string::npos) ++n;
  }
  return n;
}

TEST(Jit, NoMappingIsWritableAndExecutable) {
  SKIP_WITHOUT_JIT();
  // Compile, chain and then invalidate mid-chain (the program of
  // MidChainInvalidationUnpatchesBothSides): commits, patches and
  // withdrawals all happened, yet no mapping may ever be both writable and
  // executable, and the arena itself stays read+execute.
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
  ASSERT_TRUE(iss.run(1'000'000, Dispatch::kJit).halted);
  const JitRuntime* jit = iss.platform().block_cache()->jit();
  ASSERT_NE(jit, nullptr);
  EXPECT_GE(jit->stats().patches, 1u);
  EXPECT_GE(jit->stats().unpatches, 1u);

  std::size_t arenas = 0;
  for (const auto& line : maps_lines()) {
    const std::string perms = line.substr(line.find(' ') + 1, 4);
    EXPECT_FALSE(perms[1] == 'w' && perms[2] == 'x') << line;
    if (line.find("memfd:nfp-jit") != std::string::npos) {
      ++arenas;
      EXPECT_EQ(perms.substr(0, 3), "r-x") << line;
    }
  }
  EXPECT_EQ(arenas, 1u);
}

TEST(Jit, DroppedRuntimesReleaseArenaFdAndMapping) {
  SKIP_WITHOUT_JIT();
  // An Iss::load of an image with another size than the loaded one builds
  // a fresh block cache and so a fresh runtime, as such a snapshot restore
  // does; the loads alternate two sizes, so a leaked memfd or mapping per
  // runtime shows up as a thousand extra entries.
  const auto prog = [](const char* tail) {
    return asmkit::assemble(std::string(R"(
_start: mov 0, %l0
        mov 0, %o0
loop:   add %o0, %l0, %o0
        add %l0, 1, %l0
        cmp %l0, 100
        bne loop
        nop
        ta 0
)") + tail,
                            kTextBase);
  };
  const asmkit::Program progs[] = {prog(""), prog("        nop\n")};
  ASSERT_NE(progs[0].size(), progs[1].size());
  const auto load_and_run_1000 = [&progs] {
    Iss iss;
    for (int i = 0; i < 1000; ++i) {
      iss.load(progs[i % 2]);
      ASSERT_TRUE(iss.run(1'000'000, Dispatch::kJit).halted);
      ASSERT_NE(iss.platform().block_cache()->jit(), nullptr);
    }
    EXPECT_EQ(arena_mappings(), 1u);
  };
  // A first round settles one-time state: the probe, and the allocator's
  // pools (a sanitizer's allocator maps one region per size class in use).
  load_and_run_1000();
  const std::size_t fds = open_fds();
  const std::size_t maps = maps_lines().size();
  load_and_run_1000();
  EXPECT_EQ(arena_mappings(), 0u);
  EXPECT_EQ(open_fds(), fds);
  EXPECT_EQ(maps_lines().size(), maps);
}

// ---- graceful degradation -------------------------------------------------

TEST(Jit, ForcedOffFallsBackToBlock) {
  // With the jit forced unavailable, --dispatch=jit semantics must be
  // bit-identical to chained block dispatch (this is also the only path a
  // non-x86-64 host ever runs): no JitRuntime is created at all.
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
  jit_set_forced_off(true);
  EXPECT_FALSE(jit_available());
  const auto jit = run_observed(prog, Dispatch::kJit);
  jit_set_forced_off(false);
  const auto block = run_observed(prog, Dispatch::kBlock);
  EXPECT_EQ(jit.halted, block.halted);
  EXPECT_EQ(jit.exit_code, block.exit_code);
  EXPECT_EQ(jit.instret, block.instret);
  EXPECT_EQ(jit.digest.cpu, block.digest.cpu);
  EXPECT_EQ(jit.digest.ram, block.digest.ram);
  EXPECT_EQ(jit.counts, block.counts);

  Iss iss;
  iss.load(prog);
  jit_set_forced_off(true);
  iss.run(1'000'000, Dispatch::kJit);
  jit_set_forced_off(false);
  EXPECT_EQ(iss.platform().block_cache()->jit(), nullptr)
      << "forced-off run must not have built a JitRuntime";
}

}  // namespace
}  // namespace nfp::sim
