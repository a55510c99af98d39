// Resume bit-identity battery and negative paths for sim/state_io.h.
//
// The contract: saving at ANY budget point — including stops with a pending
// delay slot and stops inside a hot chain — and restoring into a fresh
// executor must yield a continuation that retires bit-for-bit identically to
// the uninterrupted run, in every dispatch mode. And every malformed
// snapshot (truncated, corrupted, version-skewed, foreign chunks) must be
// rejected with a structured StateError while leaving the restore target
// bit-for-bit untouched.
#include "sim/state_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "asmkit/assembler.h"
#include "sim/digest.h"
#include "sim/iss.h"
#include "sim/jit.h"
#include "sim/memmap.h"

namespace nfp::sim {
namespace {

// A loop that exercises stores across pages, UART MMIO traffic, flag-setting
// arithmetic, and taken branches (so budget stops can land on pending delay
// slots).
asmkit::Program work_program(int iterations) {
  return asmkit::assemble(
      "_start: set " + std::to_string(iterations) + R"(, %l0
        set 0x40700000, %l1
        set )" + std::to_string(kUartTx) + R"(, %l2
        clr %l3
loop:   st %l0, [%l1 + %l3]
        add %l3, 4, %l3
        and %l3, 0xffc, %l3
        add %l0, 42, %l4
        st %l4, [%l2]
        subcc %l0, 1, %l0
        bne loop
        xor %l4, %l0, %l5
        mov 0, %o0
        ta 0
)",
      kTextBase);
}

// Patches the loop body from a template instruction stored after the halt:
// a snapshot taken after the patch must carry the modified code word (the
// restore rebuilds the decode cache from restored RAM). The patching store
// sits in a different superblock than the patched site (separated by the
// ba), matching the morph cache's invalidation contract.
asmkit::Program selfmod_program() {
  return asmkit::assemble(R"(
_start: set src, %l1
        ld [%l1], %l2
        set target, %l3
        st %l2, [%l3]
        set 6, %l0
        ba loop
        nop
loop:
target: add %g4, 1, %g4
        subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
src:    add %g4, 5, %g4
)",
                          kTextBase);
}

struct Observed {
  bool halted = false;
  std::uint32_t exit_code = 0;
  std::uint64_t instret = 0;
  std::uint32_t pc = 0, npc = 0;
  ArchStateDigest digest{};
  std::array<std::uint64_t, isa::kOpCount> counts{};
  std::string uart;
};

Observed observe(Iss& iss) {
  Observed o;
  o.halted = iss.cpu().halted;
  o.exit_code = iss.cpu().exit_code;
  o.instret = iss.cpu().instret;
  o.pc = iss.cpu().pc;
  o.npc = iss.cpu().npc;
  o.digest = arch_digest(iss.cpu(), iss.bus());
  o.counts = iss.counters().counts;
  o.uart = iss.bus().uart_output();
  return o;
}

void expect_equal(const Observed& got, const Observed& want,
                  const std::string& where) {
  EXPECT_EQ(got.halted, want.halted) << where;
  EXPECT_EQ(got.exit_code, want.exit_code) << where;
  EXPECT_EQ(got.instret, want.instret) << where;
  EXPECT_EQ(got.pc, want.pc) << where;
  EXPECT_EQ(got.npc, want.npc) << where;
  EXPECT_EQ(got.digest, want.digest) << where;
  EXPECT_EQ(got.counts, want.counts) << where;
  EXPECT_EQ(got.uart, want.uart) << where;
}

Observed run_straight(const asmkit::Program& prog, Dispatch d,
                      std::uint64_t budget = 1'000'000) {
  Iss iss;
  iss.load(prog);
  iss.run(budget, d);
  return observe(iss);
}

// Runs `prog` under dispatch `d`, but save→restore→swap between two fresh
// executors at every stop point. Asserts each restored executor observes the
// exact saved state before continuing on it.
Observed run_resumed(const asmkit::Program& prog, Dispatch d,
                     const std::vector<std::uint64_t>& stops,
                     std::uint64_t budget = 1'000'000) {
  Iss a, b;
  Iss* cur = &a;
  Iss* other = &b;
  cur->load(prog);
  for (const std::uint64_t stop : stops) {
    const std::uint64_t done = cur->cpu().instret;
    if (stop > done && !cur->cpu().halted) {
      cur->run(stop - done, d);
    }
    std::stringstream buf;
    cur->save_state(buf);
    other->restore_state(buf);
    expect_equal(observe(*other), observe(*cur),
                 "restore at stop " + std::to_string(stop));
    std::swap(cur, other);
  }
  cur->run(budget, d);
  return observe(*cur);
}

std::vector<std::uint64_t> random_stops(std::uint64_t total, int n,
                                        std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint64_t> stops;
  for (int i = 0; i < n; ++i) {
    stops.push_back(std::uniform_int_distribution<std::uint64_t>(
        1, total > 1 ? total - 1 : 1)(rng));
  }
  std::sort(stops.begin(), stops.end());
  return stops;
}

std::vector<Dispatch> all_dispatch_modes() {
  std::vector<Dispatch> modes = {Dispatch::kStep, Dispatch::kBlock};
  if (jit_available()) modes.push_back(Dispatch::kJit);
  return modes;
}

TEST(StateIoResume, RandomStopsAllDispatchModes) {
  const auto prog = work_program(400);
  for (const Dispatch d : all_dispatch_modes()) {
    const Observed straight = run_straight(prog, d);
    ASSERT_TRUE(straight.halted);
    for (std::uint32_t seed : {1u, 2u, 3u}) {
      const auto stops = random_stops(straight.instret, 5, seed);
      expect_equal(run_resumed(prog, d, stops), straight,
                   "dispatch " + std::to_string(static_cast<int>(d)) +
                       " seed " + std::to_string(seed));
    }
  }
}

TEST(StateIoResume, CrossDispatchResume) {
  // Save under one dispatch mode, resume under another: the snapshot is
  // architectural state only, so every pairing must agree with the stepped
  // straight-through run.
  const auto prog = work_program(300);
  const Observed straight = run_straight(prog, Dispatch::kStep);
  ASSERT_TRUE(straight.halted);
  for (const Dispatch first : all_dispatch_modes()) {
    for (const Dispatch second : all_dispatch_modes()) {
      Iss a, b;
      a.load(prog);
      a.run(straight.instret / 2, first);
      std::stringstream buf;
      a.save_state(buf);
      b.restore_state(buf);
      b.run(1'000'000, second);
      expect_equal(observe(b), straight, "cross-dispatch resume");
    }
  }
}

TEST(StateIoResume, PendingDelaySlotSnapshot) {
  // Sweep every budget point of a few loop iterations; several land right
  // after a taken branch retired (npc != pc + 4, the delay insn pending).
  // Assert we actually hit that case, and that each one resumes exactly.
  const auto prog = work_program(50);
  const Observed straight = run_straight(prog, Dispatch::kBlock);
  ASSERT_TRUE(straight.halted);
  int pending_seen = 0;
  for (std::uint64_t stop = 1; stop < 60; ++stop) {
    Iss a, b;
    a.load(prog);
    a.run(stop, Dispatch::kBlock);
    if (a.cpu().npc != a.cpu().pc + 4) ++pending_seen;
    std::stringstream buf;
    a.save_state(buf);
    b.restore_state(buf);
    b.run(1'000'000, Dispatch::kBlock);
    expect_equal(observe(b), straight,
                 "resume from stop " + std::to_string(stop));
  }
  EXPECT_GT(pending_seen, 0) << "sweep never hit a pending delay slot";
}

TEST(StateIoResume, MidChainSnapshot) {
  // Under chained block dispatch the loop body chains to itself after the
  // first iteration; stops beyond that land mid-chain. Resume through a
  // chain-hot stop, continue chained, and require the exact final state.
  const auto prog = work_program(200);
  const Observed straight = run_straight(prog, Dispatch::kBlock);
  ASSERT_TRUE(straight.halted);
  for (const std::uint64_t stop : {40ull, 41ull, 43ull, 100ull}) {
    expect_equal(run_resumed(prog, Dispatch::kBlock, {stop}), straight,
                 "mid-chain stop " + std::to_string(stop));
  }
}

TEST(StateIoResume, SelfModifyingCodeSurvivesSnapshot) {
  const auto prog = selfmod_program();
  for (const Dispatch d : all_dispatch_modes()) {
    const Observed straight = run_straight(prog, d);
    ASSERT_TRUE(straight.halted);
    // Stop after the patching store retired but before the loop finishes:
    // the restored executor must decode the patched word, not the original.
    for (const std::uint64_t stop : {5ull, 9ull, 14ull}) {
      expect_equal(run_resumed(prog, d, {stop}), straight,
                   "selfmod stop " + std::to_string(stop));
    }
  }
}

TEST(StateIoResume, RestoreIntoDirtyTargetResetsStaleState) {
  // The target previously ran a program that dirtied pages the snapshot does
  // not carry; restore must zero them (fresh-RAM guarantee), not merge.
  const auto prog_a = work_program(100);    // stores at 0x40700000
  const auto prog_b = selfmod_program();    // stores only into its code page
  Iss a;
  a.load(prog_a);
  a.run(1'000'000);
  ASSERT_TRUE(a.cpu().halted);

  Iss b;
  b.load(prog_b);
  b.run(4, Dispatch::kStep);
  std::stringstream buf;
  b.save_state(buf);

  a.restore_state(buf);
  expect_equal(observe(a), observe(b), "restore into dirty target");
  const auto stale = a.bus().read_block(0x40700000u, 64);
  EXPECT_EQ(stale, std::vector<std::uint8_t>(64, 0));
  a.run(1'000'000);
  Iss ref;
  ref.load(prog_b);
  ref.run(1'000'000);
  expect_equal(observe(a), observe(ref), "continue after dirty restore");
}

TEST(StateIoResume, HaltedStateRoundTrips) {
  const auto prog = work_program(30);
  Iss a;
  a.load(prog);
  a.run(1'000'000);
  ASSERT_TRUE(a.cpu().halted);
  std::stringstream buf;
  a.save_state(buf);
  Iss b;
  b.restore_state(buf);
  expect_equal(observe(b), observe(a), "halted round trip");
  // Running a restored-halted machine is a no-op, exactly like the original.
  const auto r = b.run(1'000);
  EXPECT_TRUE(r.halted);
  expect_equal(observe(b), observe(a), "run after halted restore");
}

// ---- negative paths --------------------------------------------------------

std::string snapshot_bytes(Iss& iss) {
  std::ostringstream out;
  iss.save_state(out);
  return out.str();
}

// Attempts a restore that must fail; returns the structured code and asserts
// the target was left bit-for-bit untouched.
StateErrorCode expect_rejected(Iss& target, const std::string& bytes) {
  const Observed before = observe(target);
  std::istringstream in(bytes);
  StateErrorCode code = StateErrorCode::kIo;
  bool threw = false;
  try {
    target.restore_state(in);
  } catch (const StateError& e) {
    threw = true;
    code = e.code;
  }
  EXPECT_TRUE(threw) << "malformed snapshot was accepted";
  expect_equal(observe(target), before, "target after rejected restore");
  return code;
}

class StateIoNegative : public ::testing::Test {
 protected:
  void SetUp() override {
    target_.load(work_program(100));
    target_.run(37);

    Iss src;
    src.load(work_program(200));
    src.run(50);
    good_ = snapshot_bytes(src);
  }

  Iss target_;
  std::string good_;
};

// Layout: 8-byte header (magic, version), then chunk headers of
// tag(4) + size(8) + checksum(8) followed by the payload.
constexpr std::size_t kFirstChunk = 8;
constexpr std::size_t kFirstChecksum = kFirstChunk + 12;

TEST_F(StateIoNegative, AcceptsTheUncorruptedBaseline) {
  std::istringstream in(good_);
  target_.restore_state(in);  // must not throw
  EXPECT_EQ(target_.cpu().instret, 50u);
}

TEST_F(StateIoNegative, TruncatedFile) {
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{8}, std::size_t{15},
        kFirstChunk + 20, good_.size() / 2, good_.size() - 1}) {
    EXPECT_EQ(expect_rejected(target_, good_.substr(0, keep)),
              StateErrorCode::kTruncated)
        << "kept " << keep << " of " << good_.size();
  }
}

TEST_F(StateIoNegative, FlippedChecksumByte) {
  std::string bad = good_;
  bad[kFirstChecksum] ^= 0x01;
  EXPECT_EQ(expect_rejected(target_, bad), StateErrorCode::kBadChecksum);
}

TEST_F(StateIoNegative, FlippedPayloadByte) {
  std::string bad = good_;
  bad[kFirstChunk + 20 + 3] ^= 0x40;
  EXPECT_EQ(expect_rejected(target_, bad), StateErrorCode::kBadChecksum);
}

TEST_F(StateIoNegative, UnknownChunkTag) {
  std::string bad = good_;
  bad[kFirstChunk] = 'Z';
  bad[kFirstChunk + 1] = 'Z';
  bad[kFirstChunk + 2] = 'Z';
  bad[kFirstChunk + 3] = 'Z';
  EXPECT_EQ(expect_rejected(target_, bad), StateErrorCode::kUnknownChunk);
}

TEST_F(StateIoNegative, VersionSkew) {
  std::string bad = good_;
  bad[4] = static_cast<char>(kStateVersion + 1);
  EXPECT_EQ(expect_rejected(target_, bad), StateErrorCode::kBadVersion);
}

TEST_F(StateIoNegative, BadMagic) {
  std::string bad = good_;
  bad[0] = 'X';
  EXPECT_EQ(expect_rejected(target_, bad), StateErrorCode::kBadMagic);
}

TEST_F(StateIoNegative, TrailingData) {
  EXPECT_EQ(expect_rejected(target_, good_ + std::string(3, '\0')),
            StateErrorCode::kTrailingData);
}

TEST_F(StateIoNegative, MissingChunk) {
  // A platform-only snapshot lacks the ISS retire-count chunk.
  Iss src;
  src.load(work_program(50));
  src.run(10);
  std::ostringstream out;
  save_state(out, src.platform());
  EXPECT_EQ(expect_rejected(target_, out.str()),
            StateErrorCode::kMissingChunk);
}

TEST_F(StateIoNegative, ForeignChunkForThisTarget) {
  // An ISS snapshot carries the counts chunk a bare Platform restore does
  // not accept: never silently skipped.
  FunctionalSim f;
  f.load(work_program(50));
  const ArchStateDigest before =
      arch_digest(f.platform().cpu(), f.platform().bus());
  std::istringstream in(good_);
  StateErrorCode code = StateErrorCode::kIo;
  try {
    restore_state(in, f.platform());
  } catch (const StateError& e) {
    code = e.code;
  }
  EXPECT_EQ(code, StateErrorCode::kUnknownChunk);
  EXPECT_EQ(arch_digest(f.platform().cpu(), f.platform().bus()), before);
}

TEST_F(StateIoNegative, DuplicateChunk) {
  StateWriter w;
  Iss src;
  src.load(work_program(50));
  append_platform_chunks(w, src.platform());
  w.begin_chunk(kChunkCpu);  // second CPU0
  w.end_chunk();
  std::ostringstream out;
  w.finish(out);
  EXPECT_EQ(expect_rejected(target_, out.str()),
            StateErrorCode::kDuplicateChunk);
}

TEST_F(StateIoNegative, BadPayloadShape) {
  // A counts chunk with the wrong arity decodes but fails validation.
  StateWriter w;
  Iss src;
  src.load(work_program(50));
  append_platform_chunks(w, src.platform());
  w.begin_chunk(kChunkCounts);
  w.put_u32(3);
  for (int i = 0; i < 3; ++i) w.put_u64(0);
  w.end_chunk();
  std::ostringstream out;
  w.finish(out);
  EXPECT_EQ(expect_rejected(target_, out.str()),
            StateErrorCode::kBadPayload);
}

}  // namespace
}  // namespace nfp::sim
