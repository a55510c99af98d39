// Directed step-vs-block-vs-jit regressions for the board's integer cost
// ledger: whole-block retirement with handler tallies, and native code with
// inline tallies, must be bit-for-bit indistinguishable from per-instruction
// stepping — cycles, energy (IEEE-754 identical), BoardStats and the full
// architectural outcome.
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "asmkit/assembler.h"
#include "board/board.h"
#include "board/hooks.h"
#include "isa/decode.h"
#include "sim/bus.h"
#include "sim/executor.h"
#include "sim/jit.h"
#include "sim/memmap.h"
#include "sim/platform.h"
#include "support/board_stand.h"

namespace nfp::board {
namespace {

asmkit::Program prog(const std::string& src) {
  return asmkit::assemble(src, sim::kTextBase);
}

BoardConfig loud_config() {
  // Variation ON so every ledger tally is live (memory, branch, and the
  // operand toggles of plain ALU/FP ops); meter noise off because
  // the comparison targets ground truth, not the bench front end.
  BoardConfig cfg;
  cfg.enable_meter_noise = false;
  return cfg;
}

struct Outcome {
  std::uint64_t instret = 0;
  std::uint64_t cycles = 0;
  std::uint64_t energy_bits = 0;
  BoardStats stats;
  std::uint32_t exit_code = 0;
  std::uint32_t g1 = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome run_board(const asmkit::Program& p, const BoardConfig& cfg,
                  sim::Dispatch dispatch) {
  Board brd(cfg);
  brd.load(p);
  const auto result = brd.run(Board::kDefaultMaxInsns, dispatch);
  EXPECT_TRUE(result.halted);
  Outcome o;
  o.instret = result.instret;
  o.cycles = brd.cycles();
  o.energy_bits = std::bit_cast<std::uint64_t>(brd.true_energy_nj());
  o.stats = brd.stats();
  o.exit_code = result.exit_code;
  o.g1 = brd.cpu().r[1];
  return o;
}

void expect_all_modes_identical(const std::string& src,
                                const BoardConfig& cfg) {
  const auto p = prog(src);
  const Outcome step = run_board(p, cfg, sim::Dispatch::kStep);
  const Outcome block = run_board(p, cfg, sim::Dispatch::kBlock);
  // kJit runs native code with inline ledger tallies where the host can
  // execute emitted code and degrades to kBlock elsewhere; either
  // way it must match.
  const Outcome jit = run_board(p, cfg, sim::Dispatch::kJit);
  EXPECT_EQ(step, block);
  EXPECT_EQ(step, jit);
  EXPECT_GT(step.cycles, 0u);
}

TEST(BoardDispatch, SdramRowThrashMatchesStepExactly) {
  // Alternating loads/stores across two SDRAM rows (1 KiB apart) from inside
  // one straight-line block: every memory op is a row miss, so the ledger's
  // row-miss tallies carry all of the open-row cycle and energy corrections.
  expect_all_modes_identical(R"(
_start: set 0x40010000, %l0
        set 0x40010400, %l1
        mov 200, %l2
loop:   ld [%l0], %l3
        ld [%l1], %l4
        add %l3, %l4, %l5
        st %l5, [%l0]
        st %l5, [%l1]
        subcc %l2, 1, %l2
        bne loop
        nop
        mov 0, %o0
        ta 0
)",
                             loud_config());
}

TEST(BoardDispatch, RowThrashStatsAreLive) {
  // Sanity on the ledger plumbing itself: the thrash loop must actually
  // record row misses under block dispatch, not just match a zero.
  Board brd(loud_config());
  brd.load(prog(R"(
_start: set 0x40010000, %l0
        set 0x40010400, %l1
        mov 50, %l2
loop:   ld [%l0], %l3
        ld [%l1], %l4
        subcc %l2, 1, %l2
        bne loop
        nop
        mov 0, %o0
        ta 0
)"));
  ASSERT_TRUE(brd.run().halted);
  EXPECT_EQ(brd.stats().loads, 100u);
  EXPECT_GE(brd.stats().row_misses, 100u);
}

TEST(BoardDispatch, AnnulledDelaySlotInsidePrecostedBlock) {
  // ba,a: the annulled delay slot (the add of 1000) must never retire — or
  // be cost-profiled — in either mode; bne,a retakes its delay slot only on
  // the taken path. Exercises the branch direction tally and
  // the block boundary against annulment.
  expect_all_modes_identical(R"(
_start: mov 10, %l0
        mov 0, %g1
loop:   add %g1, 1, %g1
        subcc %l0, 1, %l0
        bne,a loop
        add %g1, 2, %g1
        ba,a skip
        add %g1, 1000, %g1
skip:   mov 0, %o0
        ta 0
)",
                             loud_config());
}

TEST(BoardDispatch, AnnulledSlotNeverCosted) {
  // The annulled instruction after ba,a must not contribute energy: with
  // variation off the total is an exact sum of base costs, so one stray
  // retire of the 1000-add would shift it by a whole op.
  BoardConfig quiet = loud_config();
  quiet.enable_variation = false;
  const auto p = prog(R"(
_start: ba,a skip
        add %g1, 1000, %g1
skip:   mov 0, %o0
        ta 0
)");
  const Outcome step = run_board(p, quiet, sim::Dispatch::kStep);
  const Outcome block = run_board(p, quiet, sim::Dispatch::kBlock);
  EXPECT_EQ(step, block);
  EXPECT_EQ(step.g1, 0u);
  const CostModel cost;
  const double expected = cost.of(isa::Op::kBicc).energy_nj +
                          cost.of(isa::Op::kOr).energy_nj +
                          cost.of(isa::Op::kTicc).energy_nj;
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(step.energy_bits), expected);
}

TEST(BoardDispatch, SelfModifyingStoreFlushesMidFlightCostProfile) {
  // The store patches an EARLIER, already-executed instruction of the very
  // block it sits in (add 1 <-> add 2 at `patch:`), so every iteration
  // invalidates the block while its morphed trace and compiled code are
  // mid-flight. The trace completes from the graveyard, the re-morphed
  // block rebuilds its profile, and both dispatch modes must agree on the
  // architectural result and every cost channel.
  expect_all_modes_identical(R"(
_start: mov 40, %l0
        mov 0, %g1
        set patch, %l1
        set insn_b, %l2
        ld [%l2], %l3
loop:
patch:  add %g1, 1, %g1
        st %l3, [%l1]
        subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
insn_b: add %g1, 2, %g1
)",
                             loud_config());
}

TEST(BoardDispatch, SelfModifyingStoreTakesEffectNextEntry) {
  // Architectural spot check for the kernel above under block dispatch: the
  // first loop iteration runs the original `add 1`, every later one the
  // patched `add 2` — 1 + 39*2 = 79 — matching step mode re-decode timing
  // at block granularity (the patch lands below the store, so the in-flight
  // remainder is unaffected).
  Board brd(loud_config());
  brd.load(prog(R"(
_start: mov 40, %l0
        mov 0, %g1
        set patch, %l1
        set insn_b, %l2
        ld [%l2], %l3
loop:
patch:  add %g1, 1, %g1
        st %l3, [%l1]
        subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
insn_b: add %g1, 2, %g1
)"));
  ASSERT_TRUE(brd.run().halted);
  EXPECT_EQ(brd.cpu().r[1], 79u);
}

TEST(BoardDispatch, RowStridingLoopMatchesAcrossModes) {
  // Each iteration loads, updates and stores one word 1 KiB past the last:
  // a new SDRAM row every time, with operand toggles on the add. Block and
  // jit tallies must equal stepping bit for bit.
  const BoardConfig cfg = loud_config();
  const auto p = prog(R"(
_start: set 0x40020000, %l0
        mov 30, %l1
loop:   ld [%l0], %l2
        add %l2, %l1, %l2
        st %l2, [%l0]
        add %l0, 0x400, %l0
        subcc %l1, 1, %l1
        bne loop
        nop
        mov 0, %o0
        ta 0
)");
  const Outcome step = run_board(p, cfg, sim::Dispatch::kStep);
  const Outcome block = run_board(p, cfg, sim::Dispatch::kBlock);
  const Outcome jit = run_board(p, cfg, sim::Dispatch::kJit);
  EXPECT_EQ(step, block);
  EXPECT_EQ(step, jit);
  EXPECT_GT(step.stats.row_misses, 0u);
}

TEST(BoardDispatch, GuardedBlocksFallBackToStepping) {
  // On a MUL-less configuration the umul guard must fault at the exact
  // instruction in every mode, with identical accounting for the completed
  // prefix — admit_block refuses a block holding the umul, and the jit never
  // folds one into a delay slot, so the guard fires from the stepping path.
  BoardConfig cfg = loud_config();
  cfg.has_hw_muldiv = false;
  const auto in_block = prog(R"(
_start: mov 5, %l0
        add %l0, 3, %l1
        umul %l0, %l1, %l2
        mov 0, %o0
        ta 0
)");
  const auto in_delay_slot = prog(R"(
_start: mov 5, %l0
        add %l0, 3, %l1
        subcc %l1, 1, %g0
        bne done
        umul %l0, %l1, %l2
        nop
done:   mov 0, %o0
        ta 0
)");
  auto run_to_fault = [&](const asmkit::Program& p, sim::Dispatch dispatch) {
    Board brd(cfg);
    brd.load(p);
    std::string what;
    try {
      brd.run(Board::kDefaultMaxInsns, dispatch);
    } catch (const sim::SimError& e) {
      what = e.what();
    }
    return std::tuple(what, brd.cpu().instret, brd.cycles(),
                      std::bit_cast<std::uint64_t>(brd.true_energy_nj()));
  };
  for (const auto* p : {&in_block, &in_delay_slot}) {
    const auto step = run_to_fault(*p, sim::Dispatch::kStep);
    EXPECT_NE(std::get<0>(step).find("MUL/DIV"), std::string::npos);
    EXPECT_EQ(step, run_to_fault(*p, sim::Dispatch::kBlock));
    EXPECT_EQ(step, run_to_fault(*p, sim::Dispatch::kJit));
  }
}

TEST(BoardDispatch, JitCostTierCompilesAndMatchesStep) {
  // On hosts where the jit can run, a board kJit run must actually engage
  // compiled code (blocks compiled, native entries) — not silently degrade
  // to the interpreter — while every cost channel stays
  // bit-identical to stepping (covered by the run_board comparison).
  if (!sim::jit_available()) {
    GTEST_SKIP() << "jit unavailable on this host";
  }
  const auto p = prog(R"(
_start: set 0x40010000, %l0
        mov 500, %l2
loop:   ld [%l0], %l3
        add %l3, %l2, %l3
        st %l3, [%l0]
        subcc %l2, 1, %l2
        bne loop
        nop
        mov 0, %o0
        ta 0
)");
  Board brd(loud_config());
  brd.load(p);
  ASSERT_TRUE(brd.run(Board::kDefaultMaxInsns, sim::Dispatch::kJit).halted);
  const sim::JitRuntime* jr = brd.platform().block_cache()->jit();
  ASSERT_NE(jr, nullptr) << "board kJit run never built the jit runtime";
  EXPECT_GE(jr->stats().blocks_compiled, 1u);
  EXPECT_GE(jr->stats().entries, 1u);
  // The ledger tallies inline, so the taken back-edge (with its folded nop)
  // chains natively: 500 iterations need only a handful of host entries.
  EXPECT_LT(jr->stats().entries, 20u);
  const Outcome step = run_board(p, loud_config(), sim::Dispatch::kStep);
  const Outcome jit = run_board(p, loud_config(), sim::Dispatch::kJit);
  EXPECT_EQ(step, jit);
}

TEST(BoardDispatch, FaultMidCompiledCostBlockReconcilesResiduals) {
  // The third record of the hot block is a load whose address degrades to
  // misaligned after enough iterations: the block is compiled long before
  // the fault, which then fires mid-block from native code with two memory
  // ops already tallied. The reconciled fault state — message, instret, pc,
  // cycles, energy bit pattern, loads and row misses — must match stepping
  // exactly: the faulting block's prefix is counted op by op on top of the
  // tallies its records made inline.
  const BoardConfig cfg = loud_config();
  const auto p = prog(R"(
_start: set 0x40100000, %g1
        set 0x40200000, %g2
        mov 4, %l0
        mov 0, %o0
loop:   ld [%g1], %o1
        st %o1, [%g1]
        ld [%g2], %o2
        add %o0, %o2, %o0
        add %g2, %l0, %g2
        srl %l0, 1, %l0
        ba loop
        nop
)");
  auto run_to_fault = [&](sim::Dispatch dispatch) {
    Board brd(cfg);
    brd.load(p);
    std::string what;
    try {
      brd.run(Board::kDefaultMaxInsns, dispatch);
    } catch (const sim::SimError& e) {
      what = e.what();
    }
    return std::tuple(what, brd.cpu().instret, brd.cpu().pc, brd.cycles(),
                      std::bit_cast<std::uint64_t>(brd.true_energy_nj()),
                      brd.stats().loads,
                      brd.stats().row_misses);
  };
  const auto step = run_to_fault(sim::Dispatch::kStep);
  const auto block = run_to_fault(sim::Dispatch::kBlock);
  const auto jit = run_to_fault(sim::Dispatch::kJit);
  EXPECT_FALSE(std::get<0>(step).empty()) << "expected an alignment fault";
  EXPECT_EQ(step, block);
  EXPECT_EQ(step, jit);
}

TEST(BoardDispatch, SelfModifyingStoreKillsCompiledCostBlockInFlight) {
  // Jit-focused variant of the mid-flight flush kernel: under kJit the
  // store invalidates the very block whose emitted code is executing. The
  // run must recompile and stay
  // bit-identical to stepping; on jit hosts the flush must actually have
  // gone through the jit's invalidation path. The store's address is
  // loaded in the loop, so it keeps its per-access guards and runs from
  // the emitted code (an entry-register base would fail the block's
  // hoisted check and run the block interpreted).
  const std::string src = R"(
_start: mov 40, %l0
        mov 0, %g1
        set patch, %l1
        set 0x40100000, %l4
        st %l1, [%l4]
        set insn_b, %l2
        ld [%l2], %l3
loop:
patch:  add %g1, 1, %g1
        ld [%l4], %l5
        st %l3, [%l5]
        subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
insn_b: add %g1, 2, %g1
)";
  const auto p = prog(src);
  Board brd(loud_config());
  brd.load(p);
  ASSERT_TRUE(brd.run(Board::kDefaultMaxInsns, sim::Dispatch::kJit).halted);
  EXPECT_EQ(brd.cpu().r[1], 79u);
  EXPECT_GE(brd.platform().block_cache()->stats().flushes, 1u);
  if (sim::jit_available()) {
    const sim::JitRuntime* jr = brd.platform().block_cache()->jit();
    ASSERT_NE(jr, nullptr);
    EXPECT_GE(jr->stats().blocks_compiled, 1u);
    EXPECT_EQ(jr->stats().guard_misses, 0u);
    EXPECT_GE(jr->stats().helper_exec, 40u);
  }
  const Outcome step = run_board(p, loud_config(), sim::Dispatch::kStep);
  const Outcome jit = run_board(p, loud_config(), sim::Dispatch::kJit);
  EXPECT_EQ(step, jit);
}

using test::same_state;
using Stand = test::BoardStand;

TEST(BoardDispatch, PinnedLedgerStateMatchesStep) {
  // Native code keeps the ledger's toggle history in host registers and
  // the per-block toggle sums of repeated ops in accumulators: the thunk
  // writes the history back when a run returns, and each block's helper
  // stub writes it (and the sums) back before a helper-routed record and
  // reloads it after. Comparing the whole exported state at every slice
  // end catches a missing write-back, flush or reload at any exit kind.
  // The loop holds repeated adds and xors around two helper-routed
  // records (an MMIO word load, a udiv) in one block, a row-missing store,
  // a call with a folded delay slot, a retl through the inline BTC, and a
  // conditional branch taken on every other iteration.
  const auto p = prog(R"(
_start: wr %g0, 0, %y
        set 0x40010000, %l0
        set 0x80000108, %l6
        set 0x9e3779b9, %l4
        mov 7, %l7
        mov 0, %o0
        mov 40, %l1
loop:   add %l4, %l1, %l2
        xor %l2, %l4, %l3
        add %l2, %l3, %l2
        ld [%l6], %l5
        add %l5, %l2, %l2
        xor %l2, %l5, %l3
        ld [%l0], %g2
        udiv %l2, %l7, %g3
        add %g3, %l2, %g3
        st %g3, [%l0 + 4]
        st %g3, [%l0 + 1028]
        call fn
        sll %g3, 1, %g4
        andcc %l1, 1, %g0
        be even
        add %o0, %g4, %o0
        sub %o0, 3, %o0
even:   subcc %l1, 1, %l1
        bne loop
        add %l4, %o0, %l4
        mov 0, %o0
        ta 0
fn:     add %o0, %l2, %o0
        add %o0, %l1, %o0
        retl
        xor %o0, %g3, %o0
)");
  {
    Stand step(p);
    Stand jit(p);
    // Slices of 1..37 instructions stop the native run at every offset of
    // the loop; every seventh slice is long enough to chain natively
    // through several iterations.
    for (std::uint64_t k = 0; !step.platform.cpu().halted; ++k) {
      const std::uint64_t slice = k % 7 == 6 ? 150 : 1 + (k * 11) % 37;
      ASSERT_EQ(step.run(slice, sim::Dispatch::kStep), "");
      ASSERT_EQ(jit.run(slice, sim::Dispatch::kJit), "");
      ASSERT_TRUE(same_state(step, jit)) << "slice " << k;
    }
    EXPECT_TRUE(jit.platform.cpu().halted);
    if (sim::jit_available()) {
      const sim::JitRuntime* jr = jit.platform.block_cache()->jit();
      ASSERT_NE(jr, nullptr);
      EXPECT_GE(jr->stats().blocks_compiled, 1u);
      EXPECT_GT(jr->stats().helper_exec, 0u);  // native runs hit the stub
      EXPECT_GT(jr->inline_btc_hits(), 0u);
    }
  }

  // A misaligned load faults mid-block from native code after tallies of
  // the same block landed in its accumulators (the helper stub flushes them
  // before the faulting record).
  const auto faulting = prog(R"(
_start: set 0x40100000, %g1
        set 0x40200000, %g2
        mov 4, %l0
        mov 0, %o0
loop:   add %o0, %l0, %o0
        xor %o0, %g1, %o1
        add %o1, %o0, %o1
        xor %o1, %l0, %o1
        ld [%g2], %o2
        add %g2, %l0, %g2
        srl %l0, 1, %l0
        ba loop
        nop
)");
  {
    Stand step(faulting);
    Stand jit(faulting);
    const std::string what = step.run(Board::kDefaultMaxInsns,
                                      sim::Dispatch::kStep);
    EXPECT_NE(what, "");
    EXPECT_EQ(jit.run(Board::kDefaultMaxInsns, sim::Dispatch::kJit), what);
    EXPECT_TRUE(same_state(step, jit));
  }

  // Save/restore between jit slices: the snapshot taken after a native run
  // carries the written-back history, and a restored board resumes from it.
  auto sliced = [&](sim::Dispatch dispatch) {
    Board first(loud_config());
    first.load(p);
    first.run(217, dispatch);
    std::stringstream mid;
    first.save_state(mid);
    Board second(loud_config());
    second.restore_state(mid);
    second.run(311, dispatch);
    std::stringstream end;
    second.save_state(end);
    return end.str();
  };
  EXPECT_EQ(sliced(sim::Dispatch::kStep), sliced(sim::Dispatch::kJit));
}

TEST(BoardDispatch, FaultAfterConstantPairsRebuildsOperandHistory) {
  // The loop's mov/sethi records have compile-time constant operand pairs:
  // the jit folds their toggle popcounts and keeps the history halves out
  // of %rbp. The load through %l3 (a loaded pointer, so its guards stay
  // per-access) faults on the 21st pass from its cold helper; that fault
  // exit must add the folded popcounts and rebuild the history the thunk
  // stores, so prev_a/prev_b, every tally, counts and cycles equal
  // stepping's.
  const auto p = prog(R"(
_start: set 0x40100000, %l0
        set 0x40200000, %l1
        mov 0, %l2
fill:   st %l1, [%l0]
        add %l2, 1, %l2
        cmp %l2, 20
        bne fill
        add %l0, 4, %l0
        add %l1, 3, %l1
        st %l1, [%l0]
        set 0x40100000, %l0
        mov 0, %l2
loop:   ld [%l0], %l3
        mov 5, %o1
        mov 7, %o2
        sethi %hi(0x12345000), %o3
        or %g0, 9, %o4
        ld [%l3], %o5
        add %l2, %o5, %l2
        ba loop
        add %l0, 4, %l0
)");
  Stand step(p);
  Stand jit(p);
  const std::string what = step.run(Board::kDefaultMaxInsns,
                                    sim::Dispatch::kStep);
  EXPECT_NE(what.find("misaligned"), std::string::npos) << what;
  EXPECT_EQ(jit.run(Board::kDefaultMaxInsns, sim::Dispatch::kJit), what);
  EXPECT_TRUE(same_state(step, jit));
  EXPECT_EQ(step.hooks.export_state().prev_a, jit.hooks.export_state().prev_a);
  EXPECT_EQ(step.hooks.export_state().prev_b, jit.hooks.export_state().prev_b);
  EXPECT_EQ(step.hooks.cycles(), jit.hooks.cycles());
}

// A loop whose block leaves through every exit kind: a folded delay slot,
// the budget-pending delay exit, the untaken fall-through, a call and its
// retl through the inline BTC.
constexpr const char* kExitMixLoop = R"(
_start: set 0x40010000, %l0
        mov 0, %o0
        mov 13, %l1
loop:   ld [%l0], %l2
        add %l2, %l1, %l2
        st %l2, [%l0 + 4]
        andcc %l1, 3, %g0
        be skip
        add %o0, %l2, %o0
        call fn
        xor %o0, 5, %o0
skip:   subcc %l1, 1, %l1
        bne loop
        add %l0, 8, %l0
        mov 0, %o0
        ta 0
fn:     add %o0, %l1, %o0
        retl
        sll %o0, 1, %o0
)";

TEST(BoardDispatch, ExitVisitCountsFoldAtEveryBudget) {
  // Retire counts are one visit counter per exit path, folded into the
  // counts vector when run_jit returns. Stopping the loop at every budget
  // lands the fold after every exit kind and inside every block; the whole
  // ledger (counts included) must equal stepping's, and so must a resumed
  // run to the end.
  const auto p = prog(kExitMixLoop);
  for (std::uint64_t budget = 1; budget <= 160; ++budget) {
    Stand step(p);
    Stand jit(p);
    ASSERT_EQ(step.run(budget, sim::Dispatch::kStep), "");
    ASSERT_EQ(jit.run(budget, sim::Dispatch::kJit), "");
    ASSERT_TRUE(same_state(step, jit)) << "budget " << budget;
    ASSERT_EQ(step.run(Board::kDefaultMaxInsns, sim::Dispatch::kStep), "");
    ASSERT_EQ(jit.run(Board::kDefaultMaxInsns, sim::Dispatch::kJit), "");
    ASSERT_TRUE(same_state(step, jit)) << "budget " << budget << ", resumed";
  }
}

TEST(BoardDispatch, ExitVisitCountsFoldAcrossArenaResetAndInvalidation) {
  // Every pass stores over the loop's first word through a pointer loaded
  // in the same block, so the store keeps its per-access guards and runs
  // from native code: the 200-record block dies while it is the block in
  // flight (its exit visit lands after its death) and compiles afresh on
  // the next pass, until the arena fills and is reclaimed. Counts must
  // fold exactly across both, at slice ends too.
  std::string body;
  for (int i = 0; i < 200; ++i) body += "        add %o0, 1, %o0\n";
  const auto p = prog(R"(
_start: set loop, %g1
        set 0x40100000, %g2
        st %g1, [%g2]
        ld [%g1], %l0
        mov 0, %o0
        set 4000, %l7
loop:   ld [%g2], %g3
        st %l0, [%g3]
)" + body + R"(        subcc %l7, 1, %l7
        bne loop
        nop
        ta 0
)");
  Stand step(p);
  Stand jit(p);
  for (std::uint64_t k = 0; !step.platform.cpu().halted; ++k) {
    const std::uint64_t slice = 20'000 + 37 * k;
    ASSERT_EQ(step.run(slice, sim::Dispatch::kStep), "");
    ASSERT_EQ(jit.run(slice, sim::Dispatch::kJit), "");
    ASSERT_TRUE(same_state(step, jit)) << "slice " << k;
  }
  EXPECT_TRUE(jit.platform.cpu().halted);
  if (sim::jit_available()) {
    const sim::JitRuntime* jr = jit.platform.block_cache()->jit();
    ASSERT_NE(jr, nullptr);
    EXPECT_GT(jr->stats().code_bytes, std::uint64_t{16} << 20);
    EXPECT_EQ(jr->stats().blocks_rejected, 0u);
    EXPECT_GE(jit.platform.block_cache()->stats().flushes, 4000u);
  }
}

// Per-retire reference of the board's cost model: every retired op's
// energy computed on the spot from its operands and summed in program
// order, the way a running accumulator would. The ledger's fold must agree
// with it to rounding and on cycles exactly.
struct ReferenceCostHooks {
  static constexpr bool kWantsDetail = true;
  static constexpr bool kBatchRetire = false;

  ReferenceCostHooks(const BoardConfig& c, const CostModel& m)
      : cfg(c), cost(m) {
    if (cfg.enable_cache) tags.assign(cfg.cache_lines, 0xFFFFFFFFu);
  }

  const BoardConfig& cfg;
  const CostModel& cost;
  double energy = 0.0;
  std::uint64_t cycles = 0;
  std::uint32_t prev_a = 0, prev_b = 0, prev_addr = 0;
  std::uint32_t open_row = 0xFFFFFFFFu;
  std::vector<std::uint32_t> tags;

  double toggle_factor(std::uint32_t x, std::uint32_t y) const {
    if (!cfg.enable_variation) return 1.0;
    const int t = std::popcount(x) + std::popcount(y);
    return 1.0 + cfg.data_energy_amplitude * (t / 64.0 - 0.5);
  }

  void on_retire(const isa::DecodedInsn& d, const sim::RetireInfo& info) {
    const OpCost& oc = cost.of(d.op);
    switch (oc.kind) {
      case sim::ResidualKind::kMemory: {
        double e = oc.energy_nj;
        std::uint32_t cyc = oc.cycles;
        bool hit = false;
        if (!tags.empty() && isa::is_load(d.op)) {
          const std::uint32_t line = info.ea / cfg.cache_line_bytes;
          std::uint32_t& tag = tags[line % tags.size()];
          hit = tag == line;
          tag = line;
        }
        if (hit) {
          e = cost.cache_hit_energy_nj();
          cyc = cost.cache_hit_cycles();
        } else if ((info.ea >> cost.row_bits()) != open_row) {
          open_row = info.ea >> cost.row_bits();
          e += cost.row_miss_energy_nj();
          cyc += cost.row_miss_cycles();
        }
        energy += e * toggle_factor(info.ea ^ prev_addr, info.mem_data);
        prev_addr = info.ea;
        cycles += cyc;
        break;
      }
      case sim::ResidualKind::kBranch:
        energy += info.taken ? oc.energy_nj : 0.8 * oc.energy_nj;
        cycles += info.taken ? oc.cycles : oc.cycles_alt;
        break;
      default:
        if (cfg.enable_variation) {
          energy += oc.leakage_nj + (oc.energy_nj - oc.leakage_nj) *
                                        toggle_factor(info.a ^ prev_a,
                                                      info.b ^ prev_b);
          prev_a = info.a;
          prev_b = info.b;
        } else {
          energy += oc.energy_nj;
        }
        cycles += oc.cycles;
        break;
    }
  }
};

TEST(BoardDispatch, LedgerFoldMatchesPerRetireReference) {
  const auto p = prog(R"(
_start: set 0x40010000, %l0
        set 0x40010400, %l1
        mov 300, %l2
        set 0x9e3779b9, %l6
loop:   ld [%l0], %l3
        ld [%l1 + 8], %l4
        umul %l3, %l6, %l5
        xor %l5, %l2, %l5
        st %l5, [%l0 + 4]
        stb %l5, [%l1]
        andcc %l2, 3, %g0
        be skip
        add %l5, %l4, %l7
        sll %l7, 3, %l7
skip:   add %l0, 20, %l0
        subcc %l2, 1, %l2
        bne loop
        srl %l5, 7, %l6
        mov 0, %o0
        ta 0
)");
  BoardConfig cached = loud_config();
  cached.enable_cache = true;
  cached.cache_lines = 16;
  BoardConfig quiet = loud_config();
  quiet.enable_variation = false;
  for (const BoardConfig& cfg : {loud_config(), cached, quiet}) {
    const CostModel cost;
    sim::Platform platform;
    platform.load(p);
    ReferenceCostHooks ref(cfg, cost);
    sim::Executor<ReferenceCostHooks> exec(platform.cpu(), platform.bus(),
                                           ref);
    exec.set_decode_cache(platform.code_base(), platform.decode_cache());
    exec.run(Board::kDefaultMaxInsns);
    ASSERT_TRUE(platform.cpu().halted);

    for (const sim::Dispatch d :
         {sim::Dispatch::kStep, sim::Dispatch::kBlock, sim::Dispatch::kJit}) {
      Board brd(cfg);
      brd.load(p);
      ASSERT_TRUE(brd.run(Board::kDefaultMaxInsns, d).halted);
      EXPECT_EQ(brd.cycles(), ref.cycles);
      EXPECT_NEAR(brd.true_energy_nj(), ref.energy, 1e-12 * ref.energy);
      EXPECT_GT(brd.stats().row_misses, 0u);
    }
  }
}

TEST(BoardDispatch, LeakageShareIsExemptFromToggleVariation) {
  // OpCost::leakage_nj decomposes base energy into a toggle-modulated
  // dynamic share and a static share. An op whose energy is all leakage
  // must cost exactly its base regardless of operand activity; with
  // leakage 0 the full base swings with the toggle factor.
  BoardConfig cfg;
  cfg.enable_variation = true;
  cfg.data_energy_amplitude = 0.30;

  const isa::DecodedInsn add = isa::decode(0x82006001u);  // add %g1, 1, %g1
  sim::RetireInfo noisy;
  noisy.a = 0xFFFFFFFFu;
  noisy.b = 0xA5A5A5A5u;

  CostModel all_leakage;
  all_leakage.of(isa::Op::kAdd).leakage_nj =
      all_leakage.of(isa::Op::kAdd).energy_nj;
  BoardHooks hooks_static(cfg, all_leakage);
  hooks_static.on_retire(add, noisy);
  EXPECT_DOUBLE_EQ(hooks_static.energy_nj(),
                   all_leakage.of(isa::Op::kAdd).energy_nj);

  CostModel no_leakage;
  BoardHooks hooks_dynamic(cfg, no_leakage);
  hooks_dynamic.on_retire(add, noisy);
  EXPECT_NE(hooks_dynamic.energy_nj(), no_leakage.of(isa::Op::kAdd).energy_nj);
}

}  // namespace
}  // namespace nfp::board
