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
#include <map>
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
// slots). `op` varies the text, not its size.
asmkit::Program work_program(int iterations, const std::string& op = "add") {
  return asmkit::assemble(
      "_start: set " + std::to_string(iterations) + R"(, %l0
        set 0x40700000, %l1
        set )" + std::to_string(kUartTx) + R"(, %l2
        clr %l3
loop:   st %l0, [%l1 + %l3]
        add %l3, 4, %l3
        and %l3, 0xffc, %l3
        )" + op + R"( %l0, 42, %l4
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
// restore brings the decode cache in line with restored RAM). The patching
// store sits in a different superblock than the patched site (separated by
// the ba), matching the morph cache's invalidation contract.
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

// ---- warm resumes ----------------------------------------------------------
//
// A load or restore of an image with the installed one's base and size keeps
// the decoded, morphed and compiled code. Every word that differs from what
// the decode cache was decoded from goes through the self-modifying-code
// path, so the warm target must run exactly like a cold one.

// Writes one word inside its own loop once the loop has run: the store hits
// a word of a morphed (and compiled) block.
asmkit::Program patch_covered_program() {
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
                          kTextBase);
}

// Stores into a data word of its own image on every pass; no block covers
// it.
asmkit::Program data_store_program() {
  return asmkit::assemble(R"(
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
                          kTextBase);
}

std::string snapshot_at(const asmkit::Program& prog, std::uint64_t stop,
                        Dispatch d) {
  Iss src;
  src.load(prog);
  src.run(stop, d);
  std::ostringstream out;
  src.save_state(out);
  return out.str();
}

// The decode cache must hold the decode of every text word, as RAM holds it.
void expect_decode_cache_matches_ram(Iss& iss, const std::string& where) {
  Platform& p = iss.platform();
  for (std::size_t i = 0; i < p.decode_cache().size(); ++i) {
    const std::uint32_t addr = p.code_base() + 4 * static_cast<std::uint32_t>(i);
    ASSERT_EQ(p.decode_cache()[i].raw, iss.bus().load32(addr))
        << where << " at word " << i;
  }
}

TEST(StateIoWarm, RestoreOfAnotherProgramMatchesColdTarget) {
  const auto prog_a = work_program(300);
  const auto prog_b = work_program(300, "sub");
  ASSERT_EQ(prog_a.base(), prog_b.base());
  ASSERT_EQ(prog_a.size(), prog_b.size());
  ASSERT_NE(prog_a.bytes(), prog_b.bytes());
  for (const Dispatch d : all_dispatch_modes()) {
    const std::string where = "dispatch " + std::to_string(static_cast<int>(d));
    const std::string snap = snapshot_at(prog_b, 37, d);
    Iss cold;
    std::istringstream cold_in(snap);
    cold.restore_state(cold_in);
    cold.run(1'000'000, d);
    ASSERT_TRUE(cold.cpu().halted) << where;

    Iss warm;
    warm.load(prog_a);
    ASSERT_TRUE(warm.run(1'000'000, d).halted) << where;
    const BlockCache* cache = warm.platform().block_cache();
    std::istringstream warm_in(snap);
    warm.restore_state(warm_in);
    EXPECT_EQ(warm.platform().block_cache(), cache) << where << ": cold path";
    expect_decode_cache_matches_ram(warm, where);
    warm.run(1'000'000, d);
    expect_equal(observe(warm), observe(cold), where);
  }
}

TEST(StateIoWarm, ResumeAfterPreviousJobSelfModifiedText) {
  // The worker's previous job patched its own text; the next job resumes
  // the same program from before the patch, so the patched words must be
  // re-decoded from the restored RAM.
  const auto prog = patch_covered_program();
  for (const Dispatch d : all_dispatch_modes()) {
    const std::string where = "dispatch " + std::to_string(static_cast<int>(d));
    const Observed straight = run_straight(prog, d);
    ASSERT_TRUE(straight.halted);
    ASSERT_EQ(straight.exit_code, 7u);

    Iss worker;
    worker.load(prog);
    worker.run(1'000'000, d);
    std::istringstream in(snapshot_at(prog, 3, d));
    worker.restore_state(in);
    expect_decode_cache_matches_ram(worker, where);
    worker.run(1'000'000, d);
    expect_equal(observe(worker), straight, where + " after restore");

    worker.load(prog);
    worker.run(1'000'000, d);
    expect_equal(observe(worker), straight, where + " after load");
  }
}

TEST(StateIoWarm, CountersRestartAtEveryInstall) {
  const auto prog = work_program(200);
  Iss iss;
  iss.load(prog);
  iss.run(1'000'000, Dispatch::kJit);
  std::ostringstream out;
  iss.save_state(out);
  const auto expect_zero = [&](const std::string& where) {
    const BlockCache& bc = *iss.platform().block_cache();
    EXPECT_EQ(bc.stats().blocks_morphed, 0u) << where;
    EXPECT_EQ(bc.stats().flushes, 0u) << where;
    if (const JitRuntime* jit = iss.platform().block_cache()->jit()) {
      EXPECT_EQ(jit->stats().blocks_compiled, 0u) << where;
      EXPECT_EQ(jit->stats().entries, 0u) << where;
      EXPECT_EQ(jit->inline_btc_hits(), 0u) << where;
    }
  };
  iss.load(prog);
  expect_zero("after load");
  iss.run(1'000'000, Dispatch::kJit);
  EXPECT_EQ(iss.platform().block_cache()->stats().blocks_morphed, 0u)
      << "a warm run morphs nothing";
  std::istringstream in(out.str());
  iss.restore_state(in);
  expect_zero("after restore");
}

TEST(StateIoWarm, DataStoresFlushNoBlockCoveredStoresDo) {
  for (const Dispatch d : {Dispatch::kBlock, Dispatch::kJit}) {
    const std::string where = "dispatch " + std::to_string(static_cast<int>(d));
    Iss data;
    data.load(data_store_program());
    ASSERT_TRUE(data.run(1'000'000, d).halted) << where;
    EXPECT_EQ(data.cpu().exit_code, 1u) << where;
    EXPECT_EQ(data.platform().block_cache()->stats().flushes, 0u) << where;

    Iss code;
    code.load(patch_covered_program());
    ASSERT_TRUE(code.run(1'000'000, d).halted) << where;
    EXPECT_EQ(code.cpu().exit_code, 7u) << where;
    EXPECT_GE(code.platform().block_cache()->stats().flushes, 1u) << where;
  }
}

// ---- warm program reuse ----------------------------------------------------
//
// A restore whose program chunk is exactly what the installed Program
// serializes to keeps that Program; any difference, however small, must
// yield the snapshot's program field by field.

struct ProgramParts {
  std::uint32_t base = 0, entry = 0, text = 0;
  std::vector<std::uint8_t> bytes;
  std::map<std::string, std::uint32_t> symbols;
};

ProgramParts parts_of(const asmkit::Program& p) {
  return {p.base(), p.entry(), p.text_size(), p.bytes(), p.symbols()};
}

asmkit::Program build(const ProgramParts& parts) {
  asmkit::Program p(parts.base, parts.bytes);
  p.set_entry(parts.entry);
  p.set_text_size(parts.text);
  for (const auto& [name, addr] : parts.symbols) p.define_symbol(name, addr);
  return p;
}

void expect_program_equal(const asmkit::Program& got,
                          const asmkit::Program& want,
                          const std::string& where) {
  EXPECT_EQ(got.base(), want.base()) << where;
  EXPECT_EQ(got.entry(), want.entry()) << where;
  EXPECT_EQ(got.text_size(), want.text_size()) << where;
  EXPECT_EQ(got.size(), want.size()) << where;
  EXPECT_EQ(got.bytes(), want.bytes()) << where;
  EXPECT_EQ(got.symbols(), want.symbols()) << where;
}

TEST(StateIoWarm, RestoreOfANearlyEqualProgramYieldsIt) {
  const asmkit::Program a = work_program(200);
  ASSERT_TRUE(a.find_symbol("loop"));
  const auto variant = [&](const auto& edit) {
    ProgramParts parts = parts_of(a);
    edit(parts);
    return build(parts);
  };
  const std::vector<std::pair<std::string, asmkit::Program>> variants = {
      {"image byte", variant([](ProgramParts& p) { p.bytes.back() ^= 1; })},
      {"symbol address", variant([](ProgramParts& p) { p.symbols["loop"] += 4; })},
      {"symbol name", variant([&](ProgramParts& p) {
         p.symbols.erase("loop");
         p.symbols["loop2"] = a.symbol("loop");
       })},
      {"entry", variant([](ProgramParts& p) { p.entry += 4; })},
      {"text split", variant([](ProgramParts& p) { p.text -= 4; })},
  };
  for (const auto& [what, a2] : variants) {
    Iss target;
    target.load(a);
    target.run(100);
    const std::string snap = snapshot_at(a2, 10, Dispatch::kBlock);
    std::istringstream in(snap);
    target.restore_state(in);
    expect_program_equal(target.platform().loaded_program(), a2, what);

    std::ostringstream first;
    target.save_state(first);
    EXPECT_EQ(first.str(), snap) << what;
    std::istringstream again(first.str());
    target.restore_state(again);
    std::ostringstream second;
    target.save_state(second);
    EXPECT_EQ(second.str(), first.str()) << what;
  }
}

TEST(StateIoWarm, RestoreOfTheSameProgramKeepsItAndMatchesColdTarget) {
  const asmkit::Program a = work_program(200);
  const std::string snap = snapshot_at(a, 123, Dispatch::kBlock);

  Iss cold;
  std::istringstream cold_in(snap);
  cold.restore_state(cold_in);

  Iss warm;
  warm.load(a);
  warm.run(1'000'000);
  const auto* first_symbol =
      &*warm.platform().loaded_program().symbols().begin();
  std::istringstream warm_in(snap);
  warm.restore_state(warm_in);
  EXPECT_EQ(&*warm.platform().loaded_program().symbols().begin(),
            first_symbol)
      << "the installed Program was rebuilt";
  EXPECT_EQ(arch_digest(warm.cpu(), warm.bus()),
            arch_digest(cold.cpu(), cold.bus()));
  expect_program_equal(warm.platform().loaded_program(),
                       cold.platform().loaded_program(), "same program");
  expect_program_equal(warm.platform().loaded_program(), a, "same program");
  warm.run(1'000'000);
  cold.run(1'000'000);
  expect_equal(observe(warm), observe(cold), "continued");
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
  for (const std::uint32_t version : {3u, 4u, kStateVersion + 1}) {
    std::string bad = good_;
    bad[4] = static_cast<char>(version);
    EXPECT_EQ(expect_rejected(target_, bad), StateErrorCode::kBadVersion)
        << "version " << version;
  }
}

TEST_F(StateIoNegative, EveryFlippedByteIsRefused) {
  // Headers included: a flip in a tag, size or checksum field breaks the
  // framing or the checksum; a flip in a payload always changes the
  // checksum of its chunk.
  const Observed before = observe(target_);
  for (std::size_t i = 0; i < good_.size(); ++i) {
    std::string bad = good_;
    bad[i] = static_cast<char>(~bad[i]);
    std::istringstream in(bad);
    ASSERT_THROW(target_.restore_state(in), StateError) << "byte " << i;
    expect_equal(observe(target_), before,
                 "after flipped byte " + std::to_string(i));
    if (HasFailure()) return;
  }
}

TEST(StateIoChecksum, PinnedValues) {
  // Pins the v4 chunk checksum: a change to it is a format change and must
  // come with a kStateVersion bump.
  const auto buffer = [](std::size_t n) {
    std::vector<std::uint8_t> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    return b;
  };
  const auto b37 = buffer(37);      // four words (one per lane), 5 tail bytes
  const auto b4101 = buffer(4101);  // 512 words, 5 tail bytes
  EXPECT_EQ(chunk_checksum(nullptr, 0), 0x58c94533b9407ce2ull);
  EXPECT_EQ(chunk_checksum(b37.data(), b37.size()), 0xd6fd8a5cbdf11c0eull);
  EXPECT_EQ(chunk_checksum(b4101.data(), b4101.size()),
            0x27987875d6aaf113ull);
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
  {
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

  // Program symbols must ascend strictly by name: the snapshot re-written
  // with `symbols` in place of its program's symbol table.
  auto tags = platform_chunk_tags();
  tags.push_back(kChunkCounts);
  std::istringstream in(good_);
  const StateReader r(in, tags);
  const auto with_symbols =
      [&](const std::vector<std::pair<std::string, std::uint32_t>>& symbols) {
        StateWriter w;
        for (const std::uint32_t tag : tags) {
          w.begin_chunk(tag);
          if (tag == kChunkProgram) {
            ChunkCursor c(r.payload(tag));
            for (int i = 0; i < 3; ++i) w.put_u32(c.get_u32());
            const std::uint32_t size = c.get_u32();
            w.put_u32(size);
            const auto image = c.take(size);
            w.put_bytes(image.data(), image.size());
            w.put_u32(static_cast<std::uint32_t>(symbols.size()));
            for (const auto& [name, addr] : symbols) {
              w.put_string(name);
              w.put_u32(addr);
            }
          } else {
            const auto payload = r.payload(tag);
            w.put_bytes(payload.data(), payload.size());
          }
          w.end_chunk();
        }
        std::ostringstream out;
        w.finish(out);
        return out.str();
      };
  {
    Iss control;
    std::istringstream ok(with_symbols({{"a", 4}, {"b", 8}}));
    EXPECT_NO_THROW(control.restore_state(ok));
  }
  EXPECT_EQ(expect_rejected(target_, with_symbols({{"b", 8}, {"a", 4}})),
            StateErrorCode::kBadPayload);
  EXPECT_EQ(expect_rejected(target_, with_symbols({{"a", 4}, {"a", 8}})),
            StateErrorCode::kBadPayload);
}

}  // namespace
}  // namespace nfp::sim
