// x86-64 template JIT tier above the superblock morph cache
// (Dispatch::kJit — see docs/jit.md).
//
// Each morphed superblock is compiled once into straight-line x86-64: SPARC
// architectural state stays in the CpuState struct whose address is pinned
// in %rbx for the whole native run, the RAM base pointer in %r12, the
// remaining instruction budget in %r13 and the JitRt anchor in %r14, so the
// per-instruction templates are two-to-four host instructions against
// [%rbx + offset] operands. instret is batched to one add per block exit,
// and the per-op retire counts to one visit counter per exit path, folded
// into the counts vector by fold_counts(). Resolved block-to-block
// transitions are patched directly into the emitted code (a `jmp rel32`
// over the exit stub), so hot loops never return to the host dispatch loop.
//
// Three facts are decided once per block at compile time: which loads and
// stores address a block-entry register plus a constant (their alignment,
// RAM-range and text-store guards become one check per base register in
// the prologue; a failed check runs the block once through exec_block),
// which guest registers and operand-history halves hold compile-time
// constants (their toggle popcounts fold to immediates), and which exit
// path retired the block (one visit counter each).
//
// Hooks keeping a cost ledger (the board, sim/ledger.h) get its tallies
// emitted inline, pinned in %r15: a popcnt-and-add per operand-toggle op, an
// open-row compare per memory op, an untaken count on fall-through exits.
//
// FPU ops run as SSE2 scalar templates against CpuState::f.
//
// Anything the templates do not model — MMIO, sub-word accesses off RAM,
// stores into the text, division, odd-rd doubleword forms, FP results the
// host may encode differently (a NaN, an fstoi/fdtoi sentinel), every
// faulting edge — funnels through one generic helper that re-executes the
// record via the block's own morph handler (tallying into the same ledger),
// which makes the slow path interpreter-identical by construction.
// A cached board's blocks holding a load are not compiled at all
// (Block::JitState::kRejected); the executor runs them through exec_block,
// the per-block fallback to kBlock. On non-x86-64 hosts (or when the host
// refuses an executable memfd mapping) jit_available() is false and the
// executor stays on the kBlock lookup loop entirely.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "sim/block_cache.h"
#include "sim/bus.h"
#include "sim/cpu_state.h"

// The backend runs x86-64 code from a memfd mapped once read+execute and
// written only with pwrite, so W^X holds without protection changes. It is
// compiled in only on x86-64 Linux hosts. Everywhere else (and when
// NFP_JIT_DISABLED is defined) the stubs below report the jit unavailable
// and the executor degrades to kBlock.
#if defined(__x86_64__) && defined(__linux__) && !defined(NFP_JIT_DISABLED)
#define NFP_JIT_ENABLED 1
#else
#define NFP_JIT_ENABLED 0
#endif

namespace nfp::sim {

// True when emitted code can actually run here: compiled-in backend, not
// forced off by jit_set_forced_off, and a one-shot probe confirming the
// host will map a memfd executable and let it be written.
bool jit_available();

// Test hook: force jit_available() == false to exercise the graceful
// kBlock degradation paths without a foreign host.
void jit_set_forced_off(bool off);

// One slot of the JIT-resident branch-target cache probed inline on
// register-indirect exits (jmpl/retl). Direct-mapped on (pc >> 2); the
// sentinel tag 1 can never match a 4-aligned target.
struct JitBtcSlot {
  std::uint32_t tag = 1;
  std::uint32_t pad = 0;
  std::uint64_t native = 0;  // absolute address of the target block prologue
};

// State block anchored in %r14 during native execution. Field offsets are
// baked into emitted code and pinned by static_asserts in jit.cpp.
struct JitRt {
  CpuState* cpu = nullptr;          // +0   -> %rbx
  std::uint8_t* ram_bias = nullptr; // +8   ram_data() - kRamBase -> %r12
  std::uint8_t* touched = nullptr;  // +16  dirty-page flags
  std::uint64_t* counts = nullptr;  // +24  counts vector visits fold into
  const void* cur_meta = nullptr;   // +32  JitBlockMeta* of the running block
  std::uint32_t fault_idx = 0;      // +40  record index of a stashed fault
  std::uint32_t guard_miss = 0;     // +44  a prologue address check failed
  JitRuntime* owner = nullptr;      // +48
  CostLedger* ledger = nullptr;     // +56  -> %r15 (null: no cost tallies)
  const JitBtcSlot* btc = nullptr;  // +64  inline BTC table base
  std::uint64_t btc_hits = 0;       // +72  inline probe hits
  std::uint64_t* visits = nullptr;  // +80  per-exit-path visit counters
};

// One potentially-patchable block exit: a static successor pc, the rel32
// field of the `jmp` guarding it, and the stub the jump targets while
// unpatched (which materializes pc/npc and returns to the host).
struct JitExit {
  std::uint32_t exit_pc = 0;
  std::uint32_t patch_off = 0;  // arena offset of the rel32 field
  std::uint32_t stub_off = 0;   // arena offset of the unpatched target
  Block* patched_to = nullptr;
};

struct JitBlockMeta {
  Block* block = nullptr;
  // Set when the block is invalidated. `block` is NOT cleared — an in-flight
  // native run may still route slow-path records through it, and the Block
  // object stays alive in the cache's graveyard until the next morph — but
  // once dead the meta must never source a new patch or host transition.
  bool dead = false;
  std::uint32_t start = 0;
  std::uint32_t len = 0;
  std::uint32_t entry_off = 0;  // arena offset of the block prologue
  // The block's exit-path visit counters: [first_slot, first_slot + slots)
  // of the runtime's flat array.
  std::uint32_t first_slot = 0;
  std::uint32_t slots = 0;
  std::vector<JitExit> exits;
  // Patched jumps INTO this block: {source meta, exit index}. Mirrors
  // JitExit::patched_to so block death can unpatch both directions without
  // scanning the arena.
  std::vector<std::pair<JitBlockMeta*, std::uint32_t>> incoming;
};

class JitRuntime {
 public:
  // Throws std::system_error when the host, having passed the probe behind
  // jit_available(), refuses the arena (e.g. no descriptor left).
  JitRuntime(Bus& bus, BlockCache& cache);
  ~JitRuntime();

  JitRuntime(const JitRuntime&) = delete;
  JitRuntime& operator=(const JitRuntime&) = delete;

  // Binds the CpuState, the retire-counter vector (visits fold into it) and
  // the cost ledger (or null) the emitted code will address. Visit counters
  // and the ledger's configuration (toggle variation, residual kinds, row
  // size, cache) are baked into compiled blocks, so switching counts on or
  // off or rebinding the ledger discards all previously compiled code;
  // visits owed to the old counts vector are folded into it first.
  void configure(CpuState* cpu, std::uint64_t* counts, CostLedger* ledger);

  // Compiles `b` on first sight (updating b.jit_state); later calls are a
  // cheap state read. Rejected blocks stay rejected. A full arena is
  // reclaimed: every compiled block is dropped (reset_code) and `b` is
  // compiled once more into the emptied arena.
  Block::JitState ensure_compiled(Block& b);

  // Runs native code starting at `b` (which must be kCompiled) for at most
  // `budget` instructions. Returns the unconsumed budget. On a fault,
  // faulted() is true and the caller reconciles via take_fault().
  std::uint64_t enter(Block& b, std::uint64_t budget);

  bool faulted() const { return rt_.fault_idx != kNoFault; }

  // True (once) when the last native run stopped at a block whose prologue
  // address check failed: pc is that block's entry, last_block() names it,
  // and the caller runs it once through the interpreter.
  bool take_guard_miss() {
    const bool missed = rt_.guard_miss != 0;
    rt_.guard_miss = 0;
    stats_.guard_misses += missed ? 1 : 0;
    return missed;
  }

  // Adds every exit path's visits times its block's retire profile (plus a
  // folded delay op) into the bound counts vector and zeroes the visits.
  // The executor calls it on every return from run_jit; configure,
  // reset_code and block death call it too, so the counts vector is exact
  // whenever no native code runs.
  void fold_counts() noexcept;
  // Folds the visits of blocks that died during the last native run (the
  // dying block may have finished its trace and bumped an exit after
  // on_block_death). The host loop calls it after every native run, before
  // the next lookup() may free a dead Block.
  void fold_dying() noexcept;

  // Fault reconciliation data: the meta of the faulting block plus the
  // record index that faulted. Clears the fault latch.
  std::pair<const JitBlockMeta*, std::uint32_t> take_fault();
  std::exception_ptr take_exception() { return std::move(pending_); }

  // The last block whose prologue ran (native runs leave it in rt_.cur_meta);
  // the host loop uses it as the source side of transition patching.
  Block* last_block() const;

  // Patches `from`'s exit with exit_pc == pc to jump straight into `to`'s
  // emitted entry. No-op if no such exit exists or it is already patched.
  void patch_transition(JitBlockMeta& from, std::uint32_t pc, Block& to);

  // Installs `pc -> to` in the inline branch-target cache probed by
  // register-indirect exits. No-op when `to` is not compiled; entries are
  // withdrawn on block death and code reset.
  void btc_insert(std::uint32_t pc, Block& to);
  std::uint64_t inline_btc_hits() const { return rt_.btc_hits; }

  // Invalidation hook (called from BlockCache::invalidate): withdraw every
  // patched jump into and out of `b` so no native path can reach its stale
  // code or trust its stale edges.
  void on_block_death(Block& b);

  void stash_exception(std::exception_ptr e) { pending_ = std::move(e); }
  Bus& bus() { return bus_; }
  BlockCache& cache() { return cache_; }

  struct Stats {
    std::uint64_t blocks_compiled = 0;
    std::uint64_t blocks_rejected = 0;
    std::uint64_t code_bytes = 0;
    std::uint64_t entries = 0;        // host-side native entries
    std::uint64_t patches = 0;        // chain jumps patched in
    std::uint64_t unpatches = 0;      // chain jumps withdrawn
    std::uint64_t helper_exec = 0;    // slow-path records executed
    std::uint64_t btc_inserts = 0;    // inline-BTC entries installed
    std::uint64_t guard_misses = 0;   // prologue address checks that failed
  };
  const Stats& stats() const { return stats_; }
  // Zeroes stats() and inline_btc_hits() (BlockCache::reset_stats).
  void reset_stats() {
    stats_ = Stats{};
    rt_.btc_hits = 0;
  }
  // The generic slow path bumps helper_exec through this (hot, but only on
  // slow records).
  void count_helper_exec() { ++stats_.helper_exec; }

  static constexpr std::uint32_t kNoFault = 0xFFFFFFFFu;
  static constexpr std::uint32_t kInlineBtcEntries = 512;
  // A visit slot whose exit path folds no delay instruction.
  static constexpr std::uint8_t kNoExtra = 0xFF;

 private:
  struct Impl;  // arena + emitted-code bookkeeping (x86-64 only)

  // Drops all compiled blocks and empties the arena (the counts or ledger
  // binding changed, or the arena is full).
  void reset_code();
  void fold_slots(const JitBlockMeta& m) noexcept;

  // One exit path's visit counter: the block whose profile it retires (an
  // index into metas_, which keeps every meta until reset_code) and the op
  // of a delay instruction the path folds (kNoExtra: none). Eight bytes.
  struct VisitSlot {
    std::uint32_t meta = 0;
    std::uint8_t extra = kNoExtra;
  };

  Bus& bus_;
  BlockCache& cache_;
  JitRt rt_;
  std::exception_ptr pending_;
  std::vector<std::unique_ptr<JitBlockMeta>> metas_;
  Stats stats_;
  std::vector<JitBtcSlot> btc_;
  // Flat visit-counter array the emitted exits bump (JitRt::visits) and the
  // slot each counter belongs to.
  std::vector<std::uint64_t> visits_;
  std::vector<VisitSlot> slots_;
  // Blocks that died since the host last folded their visits.
  std::vector<const JitBlockMeta*> dying_;
  std::unique_ptr<Impl> impl_;
};

// stats() plus inline_btc_hits(). The counters exist in both builds, so
// the foreign-host stub needs no definition of its own.
inline void to_json(JsonWriter& w, const JitRuntime& jit) {
  const JitRuntime::Stats& s = jit.stats();
  w.begin_object().field("blocks_compiled", s.blocks_compiled);
  w.field("blocks_rejected", s.blocks_rejected);
  w.field("code_bytes", s.code_bytes).field("entries", s.entries);
  w.field("patches", s.patches).field("unpatches", s.unpatches);
  w.field("helper_exec", s.helper_exec).field("btc_inserts", s.btc_inserts);
  w.field("inline_btc_hits", jit.inline_btc_hits()).end_object();
}

}  // namespace nfp::sim
