// Resume bit-identity for the measurement board: a snapshot carries the
// integer cost ledger (per-op counts and tallies, SDRAM open row, cache
// tags, operand-toggle history), so a restored board continues with ground
// truth bit-for-bit identical to the uninterrupted run in every dispatch
// mode and cache configuration. Restores under a different configuration
// are refused.
#include "board/board.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "asmkit/assembler.h"
#include "board/cost_model.h"
#include "board/events.h"
#include "isa/insn.h"
#include "sim/digest.h"
#include "sim/iss.h"
#include "sim/jit.h"
#include "sim/memmap.h"
#include "sim/state_io.h"

namespace nfp::board {
namespace {

// Loads and stores striding across SDRAM rows (row misses), both branch
// directions, and operand-varying arithmetic — every ledger tally and every
// accumulator the snapshot must carry. `op` varies the text, not its size.
asmkit::Program board_program(int iterations, const std::string& op = "xor") {
  return asmkit::assemble(
      "_start: set " + std::to_string(iterations) + R"(, %l0
        set 0x40700000, %l1
        clr %l3
loop:   st %l0, [%l1 + %l3]
        ld [%l1 + %l3], %l4
        add %l3, 820, %l3
        and %l3, 0xffc, %l3
        andcc %l0, 3, %g0
        be skip
        )" + op + R"( %l4, %l0, %l5
        add %l5, %l4, %l6
skip:   subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
)",
      sim::kTextBase);
}

struct BoardObserved {
  std::uint64_t instret = 0;
  std::uint64_t cycles = 0;
  std::uint64_t energy_bits = 0;  // bit-cast: "identical" means identical
  BoardStats stats;
  sim::ArchStateDigest digest{};
  bool halted = false;
};

BoardObserved observe(Board& b) {
  BoardObserved o;
  o.instret = b.cpu().instret;
  o.cycles = b.cycles();
  o.energy_bits = std::bit_cast<std::uint64_t>(b.true_energy_nj());
  o.stats = b.stats();
  o.digest = sim::arch_digest(b.cpu(), b.bus());
  o.halted = b.cpu().halted;
  return o;
}

void expect_equal(const BoardObserved& got, const BoardObserved& want,
                  const std::string& where) {
  EXPECT_EQ(got.instret, want.instret) << where;
  EXPECT_EQ(got.cycles, want.cycles) << where;
  EXPECT_EQ(got.energy_bits, want.energy_bits) << where;
  EXPECT_EQ(got.stats, want.stats) << where;
  EXPECT_EQ(got.digest, want.digest) << where;
  EXPECT_EQ(got.halted, want.halted) << where;
}

std::vector<sim::Dispatch> board_modes() {
  // kJit is always in the list: on hosts without the jit the executor runs
  // chained block dispatch under the kJit label, which must also resume.
  return {sim::Dispatch::kStep, sim::Dispatch::kBlock, sim::Dispatch::kJit};
}

void resume_battery(const BoardConfig& cfg, const std::string& variant) {
  const auto prog = board_program(120);
  for (const sim::Dispatch d : board_modes()) {
    Board straight(cfg);
    straight.load(prog);
    straight.run(1'000'000, d);
    const BoardObserved want = observe(straight);
    ASSERT_TRUE(want.halted) << variant;

    for (const std::uint64_t stop : {1ull, 7ull, 23ull, 150ull, 500ull}) {
      Board a(cfg), b(cfg);
      a.load(prog);
      a.run(stop, d);
      std::stringstream buf;
      a.save_state(buf);
      b.restore_state(buf);
      expect_equal(observe(b), observe(a),
                   variant + " at stop " + std::to_string(stop));
      b.run(1'000'000, d);
      expect_equal(observe(b), want,
                   variant + " resumed from " + std::to_string(stop) +
                       " mode " + std::to_string(static_cast<int>(d)));
    }
  }
}

TEST(BoardState, ResumeApproxTimed) { resume_battery(BoardConfig{}, "approx"); }

TEST(BoardState, ResumeWithDataCache) {
  BoardConfig cfg;
  cfg.enable_cache = true;
  cfg.cache_lines = 64;
  resume_battery(cfg, "cached");
}

TEST(BoardState, MeasurementAfterResumeMatches) {
  // measure() is a pure function of ground truth + config, so a resumed
  // board's bench reading is bit-identical too.
  const auto prog = board_program(80);
  Board straight;
  straight.load(prog);
  straight.run(1'000'000);
  const Measurement want = straight.measure("kernel-x");

  Board a, b;
  a.load(prog);
  a.run(100);
  std::stringstream buf;
  a.save_state(buf);
  b.restore_state(buf);
  b.run(1'000'000);
  const Measurement got = b.measure("kernel-x");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.energy_nj),
            std::bit_cast<std::uint64_t>(want.energy_nj));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.time_s),
            std::bit_cast<std::uint64_t>(want.time_s));
}

TEST(BoardState, EventCountersSurviveSnapshotAndResume) {
  // The PMU export (board/events.h) is derived entirely from snapshot state,
  // so a restored board's counter vector is bit-identical at the checkpoint
  // and stays identical to the uninterrupted run after resuming — in every
  // dispatch mode.
  const auto prog = board_program(120);
  for (const sim::Dispatch d : board_modes()) {
    Board straight;
    straight.load(prog);
    straight.run(1'000'000, d);
    const EventCounters want = straight.events();
    // The battery program must actually exercise the counters it guards.
    EXPECT_NE(want[Event::kRetired], 0u);
    EXPECT_NE(want[Event::kLoads], 0u);
    EXPECT_NE(want[Event::kStores], 0u);
    EXPECT_NE(want[Event::kRowMisses], 0u);
    EXPECT_NE(want[Event::kBranchesTaken], 0u);
    EXPECT_NE(want[Event::kBranchesUntaken], 0u);
    EXPECT_EQ(want[Event::kStallCycles],
              want[Event::kRowMisses] * CostModel{}.row_miss_cycles());

    Board a, b;
    a.load(prog);
    a.run(37, d);
    std::stringstream buf;
    a.save_state(buf);
    b.restore_state(buf);
    EXPECT_EQ(b.events(), a.events())
        << "mode " << static_cast<int>(d) << " at checkpoint";
    b.run(1'000'000, d);
    EXPECT_EQ(b.events(), want)
        << "mode " << static_cast<int>(d) << " after resume";
  }
}

TEST(BoardState, ConfigMismatchRejected) {
  const auto prog = board_program(50);
  Board src;
  src.load(prog);
  src.run(60);
  std::stringstream buf;
  src.save_state(buf);

  BoardConfig other;
  other.seed = 0xDEADBEEFu;  // any fingerprint field difference refuses
  Board target(other);
  target.load(prog);
  target.run(10);
  const BoardObserved before = observe(target);

  sim::StateErrorCode code = sim::StateErrorCode::kIo;
  try {
    target.restore_state(buf);
  } catch (const sim::StateError& e) {
    code = e.code;
  }
  EXPECT_EQ(code, sim::StateErrorCode::kConfigMismatch);
  expect_equal(observe(target), before, "target after refused restore");
}

TEST(BoardState, InconsistentLedgerTallyRejected) {
  // A tally larger than its retire count would wrap the unsigned
  // subtractions in the cycle/energy folds: restore must refuse it with
  // kBadPayload and leave the target untouched.
  const auto prog = board_program(50);
  Board src;
  src.load(prog);
  src.run(200);
  std::stringstream buf;
  src.save_state(buf);
  auto tags = sim::platform_chunk_tags();
  tags.push_back(sim::kChunkBoardConfig);
  tags.push_back(sim::kChunkBoardHooks);
  const sim::StateReader r(buf, tags);
  // Re-serializes the snapshot with `hooks` as the board-hooks payload
  // (fresh checksums, so only the payload validation can object).
  const auto rebuild = [&](const std::vector<std::uint8_t>& hooks) {
    sim::StateWriter w;
    for (const std::uint32_t tag : tags) {
      const auto& p = tag == sim::kChunkBoardHooks ? hooks : r.payload(tag);
      w.begin_chunk(tag);
      w.put_bytes(p.data(), p.size());
      w.end_chunk();
    }
    std::stringstream out;
    w.finish(out);
    return out;
  };

  // Payload layout: u32 op count, then the tally arrays (counts first, row
  // misses third) of one little-endian u64 per op.
  const auto intact_hooks = r.payload(sim::kChunkBoardHooks);
  std::vector<std::uint8_t> hooks(intact_hooks.begin(), intact_hooks.end());
  const auto ld = static_cast<std::size_t>(isa::Op::kLd);
  const auto slot = [&](std::size_t tally) {
    return hooks.data() + 4 + 8 * (tally * isa::kOpCount + ld);
  };
  std::uint64_t loads = 0;
  std::memcpy(&loads, slot(0), 8);
  ASSERT_GT(loads, 0u);
  {
    Board control;
    std::stringstream intact = rebuild(hooks);
    EXPECT_NO_THROW(control.restore_state(intact));
  }
  const std::uint64_t too_many = loads + 1;
  std::memcpy(slot(2), &too_many, 8);

  Board target;
  target.load(prog);
  target.run(10);
  const BoardObserved before = observe(target);
  std::stringstream corrupt = rebuild(hooks);
  sim::StateErrorCode code = sim::StateErrorCode::kIo;
  try {
    target.restore_state(corrupt);
  } catch (const sim::StateError& e) {
    code = e.code;
  }
  EXPECT_EQ(code, sim::StateErrorCode::kBadPayload);
  expect_equal(observe(target), before, "target after refused restore");
}

TEST(BoardState, BoardSnapshotRefusedByIss) {
  // Board chunks are foreign to a platform-only restore: structured error,
  // never silently skipped.
  Board src;
  src.load(board_program(50));
  src.run(30);
  std::stringstream buf;
  src.save_state(buf);

  sim::FunctionalSim f;
  f.load(board_program(50));
  sim::StateErrorCode code = sim::StateErrorCode::kIo;
  try {
    sim::restore_state(buf, f.platform());
  } catch (const sim::StateError& e) {
    code = e.code;
  }
  EXPECT_EQ(code, sim::StateErrorCode::kUnknownChunk);
}

TEST(BoardState, RestoreIntoFreshBoardWithoutLoad) {
  // restore_state is self-contained: a never-loaded board works as a target.
  const auto prog = board_program(60);
  Board straight;
  straight.load(prog);
  straight.run(1'000'000);

  Board a;
  a.load(prog);
  a.run(77);
  std::stringstream buf;
  a.save_state(buf);

  Board fresh;  // no load()
  fresh.restore_state(buf);
  fresh.run(1'000'000);
  expect_equal(observe(fresh), observe(straight), "fresh-target resume");
}

// ---- warm resumes ----------------------------------------------------------
//
// A board keeps its decoded, morphed and compiled code across a load or
// restore of an image with the same base and size (the same decoder binary
// for job after job). Whatever the previous job left behind, the resumed
// run must be bit-identical to one on a cold board.

// Patches a word of its own loop once the loop has run (a covered word).
asmkit::Program board_selfmod_program() {
  return asmkit::assemble(R"(
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
                          sim::kTextBase);
}

std::string board_snapshot(const asmkit::Program& prog, std::uint64_t stop,
                           sim::Dispatch d) {
  Board src;
  src.load(prog);
  src.run(stop, d);
  std::ostringstream out;
  src.save_state(out);
  return out.str();
}

BoardObserved resume_cold(const std::string& snap, sim::Dispatch d) {
  Board cold;
  std::istringstream in(snap);
  cold.restore_state(in);
  cold.run(1'000'000, d);
  return observe(cold);
}

TEST(BoardWarmResume, RestoreOfAnotherProgramMatchesColdBoard) {
  const auto prog_a = board_program(120);
  const auto prog_b = board_program(120, "or");
  ASSERT_EQ(prog_a.base(), prog_b.base());
  ASSERT_EQ(prog_a.size(), prog_b.size());
  ASSERT_NE(prog_a.bytes(), prog_b.bytes());
  for (const sim::Dispatch d : board_modes()) {
    const std::string where = "mode " + std::to_string(static_cast<int>(d));
    const std::string snap = board_snapshot(prog_b, 150, d);
    Board cold;
    std::istringstream cold_in(snap);
    cold.restore_state(cold_in);
    cold.run(1'000'000, d);
    ASSERT_TRUE(cold.cpu().halted) << where;

    Board warm;
    warm.load(prog_a);
    ASSERT_TRUE(warm.run(1'000'000, d).halted) << where;
    const sim::BlockCache* cache = warm.platform().block_cache();
    std::istringstream warm_in(snap);
    warm.restore_state(warm_in);
    EXPECT_EQ(warm.platform().block_cache(), cache) << where << ": cold path";
    warm.run(1'000'000, d);
    expect_equal(observe(warm), observe(cold), where);
    EXPECT_EQ(warm.events(), cold.events()) << where;
  }
}

TEST(BoardWarmResume, ResumeAfterPreviousJobSelfModifiedText) {
  const auto prog = board_selfmod_program();
  for (const sim::Dispatch d : board_modes()) {
    const std::string where = "mode " + std::to_string(static_cast<int>(d));
    const std::string snap = board_snapshot(prog, 3, d);
    const BoardObserved want = resume_cold(snap, d);
    ASSERT_TRUE(want.halted) << where;

    Board worker;
    worker.load(prog);
    worker.run(1'000'000, d);
    ASSERT_EQ(worker.cpu().exit_code, 7u) << where;
    std::istringstream in(snap);
    worker.restore_state(in);
    worker.run(1'000'000, d);
    expect_equal(observe(worker), want, where);
    EXPECT_EQ(worker.cpu().exit_code, 7u) << where;
  }
}

TEST(BoardWarmResume, DataStoresFlushNoBlockCoveredStoresDo) {
  for (const sim::Dispatch d : {sim::Dispatch::kBlock, sim::Dispatch::kJit}) {
    const std::string where = "mode " + std::to_string(static_cast<int>(d));
    Board data;
    data.load(asmkit::assemble(R"(
_start: set data, %l1
        set 100, %l0
loop:   st %l0, [%l1]
        subcc %l0, 1, %l0
        bne loop
        nop
        ld [%l1], %o0
        ta 0
data:   .word 0
)",
                               sim::kTextBase));
    ASSERT_TRUE(data.run(1'000'000, d).halted) << where;
    EXPECT_EQ(data.cpu().exit_code, 1u) << where;
    EXPECT_EQ(data.platform().block_cache()->stats().flushes, 0u) << where;

    Board code;
    code.load(board_selfmod_program());
    ASSERT_TRUE(code.run(1'000'000, d).halted) << where;
    EXPECT_EQ(code.cpu().exit_code, 7u) << where;
    EXPECT_GE(code.platform().block_cache()->stats().flushes, 1u) << where;
  }
}

}  // namespace
}  // namespace nfp::board
