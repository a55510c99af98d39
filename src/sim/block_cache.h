// Superblock morph cache (paper Fig. 2/3, OVPsim-style code morphing).
//
// The executor's single-step path pays a decode-cache bounds check, a large
// op switch, and a retire hook per retired instruction. Programs spend almost
// all of their time re-executing the same straight-line runs, so this cache
// lazily discovers basic blocks (maximal runs of non-CTI instructions inside
// the predecoded text, plus the terminating branch/call/jump when it has a
// morphable form), "morphs" each one once into a compact trace of
// pre-resolved handler records — function-pointer dispatch instead of the op
// switch, operand-2 immediates pre-materialized, odd-rd checks hoisted to
// morph time — and lets the executor run whole blocks per dispatch with a
// single entry check. Each block also carries its static per-op retire
// profile so hooks without per-instruction detail (functional sim, counting
// ISS) retire the block with one vector-add.
//
// Chaining: most blocks transfer to the same one or two successors every
// time, so each block memoizes up to two resolved exit edges (exit pc ->
// successor block) the first time they resolve; the dispatch loop follows a
// matching link straight into the next trace without re-entering lookup().
// Register-indirect exits (jmpl: returns, function pointers) have unbounded
// targets instead, so they go through a small direct-mapped branch-target
// cache (pc -> Block*). Both are pure lookup memos — correctness only
// requires invalidation to clear them, which flush does from both sides via
// per-block back-references (see invalidate()).
//
// Invalidation: the cached code range is the image's text section (see
// Platform::load), so stores to static data never reach it. A store that
// lands inside the text re-decodes the overwritten words and flushes every
// block overlapping them (taking effect at the next block entry; the
// remainder of a block already in flight completes from its morphed trace,
// and chain links into or out of flushed blocks are severed immediately so
// a chain in flight falls back to lookup()). Every word a block has ever
// covered is marked, and a store into text no block covers (a literal, a
// word never executed) stops after the re-decode without looking at any
// block. Code placed outside the text (in .data, say) is never cached: it
// single-steps with a fresh decode from RAM.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/decode.h"
#include "sim/bus.h"
#include "sim/cpu_state.h"
#include "sim/hooks.h"
#include "sim/json.h"

namespace nfp::sim {

class BlockCache;
class JitRuntime;
struct CostLedger;
struct JitBlockMeta;
struct MorphInsn;

// Execution context shared by all handler records of one block dispatch.
// `base_pc`/`base` let fault paths reconstruct the architectural pc of the
// offending record without any per-instruction bookkeeping.
struct MorphCtx {
  CpuState& st;
  Bus& bus;
  BlockCache& cache;
  std::uint32_t base_pc;
  const MorphInsn* base;
  // instret at block entry: the dispatch loop batches instret updates (one
  // add at block exit), so handlers whose effects can observe the counter
  // (MMIO word loads hitting the timer/instret registers) must restore the
  // exact architectural value first via sync_instret().
  std::uint64_t entry_instret;
  // Cost ledger of the running hooks (the board), or null: the tallying
  // handler variants (BlockCache::set_tally) add each record's retire
  // operands to it.
  CostLedger* ledger = nullptr;

  std::uint32_t pc_of(const MorphInsn& m) const;
  void sync_instret(const MorphInsn& m) const;
};

using MorphFn = void (*)(const MorphInsn&, MorphCtx&);

// One morphed instruction: 16 bytes, pre-resolved at morph time.
struct MorphInsn {
  MorphFn fn;
  std::uint8_t op;   // isa::Op, for prefix-retire on faults and diagnostics
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::uint32_t op2 = 0;  // pre-materialized immediate (imm forms only)
};

inline std::uint32_t MorphCtx::pc_of(const MorphInsn& m) const {
  return base_pc + 4 * static_cast<std::uint32_t>(&m - base);
}

inline void MorphCtx::sync_instret(const MorphInsn& m) const {
  st.instret = entry_instret + static_cast<std::uint64_t>(&m - base);
}

struct Block;

// One memoized exit edge: the pc execution actually arrived at after this
// block (and its delay slot, if any) plus the block entered there. Purely a
// cached BlockCache::lookup() result; target == nullptr marks a free slot.
struct ChainLink {
  std::uint32_t pc = 0;
  Block* target = nullptr;
};

struct Block {
  std::uint32_t start = 0;  // entry pc
  std::uint32_t len = 0;    // instructions in the block (>= 1)
  // The last record is a morphed control transfer (bicc/fbfcc/call/jmpl)
  // that writes pc/npc itself; the executor then skips its sequential
  // pc/npc update. The CTI's delay slot always single-steps.
  bool ends_with_cti = false;
  // Terminating CTI is a jmpl: the exit target is register-dependent, so
  // successor resolution goes through the branch-target cache, never links.
  bool indirect_exit = false;
  // Set when invalidate() flushes the block. The trace stays executable
  // until the graveyard drains, but no new links may be installed on it.
  bool dead = false;
  // Successor links (fallthrough/not-taken and direct taken target),
  // populated lazily the first time an exit resolves. Two-sided: preds
  // back-references every block holding a link into this one, so flushing
  // can sever incoming edges without scanning the whole cache.
  std::array<ChainLink, 2> links{};
  std::vector<Block*> preds;
  std::vector<MorphInsn> code;
  // Static retire profile: per-op counts for one front-to-back execution.
  std::vector<BlockOpCount> profile;
  // Verdict of a hook with retire guards (see BlockGuard), cached on first
  // dispatch. Dies with the block on invalidation.
  BlockGuard guard = BlockGuard::kUnchecked;
  // JIT compilation state (Dispatch::kJit), owned by the cache's JitRuntime:
  // kNone until the first jit dispatch reaches the block, then kCompiled
  // (jit_meta names the emitted code) or kRejected (the block single-runs
  // through the interpreter's exec_block — the per-block kBlock fallback).
  enum class JitState : std::uint8_t { kNone = 0, kCompiled, kRejected };
  JitState jit_state = JitState::kNone;
  // The emitted code folds the CTI's delay-slot instruction — one word PAST
  // [start, start + 4*len) — so invalidation must treat that word as part of
  // the block's footprint (see BlockCache::invalidate).
  bool jit_folds_delay = false;
  JitBlockMeta* jit_meta = nullptr;

  Block* chain_next(std::uint32_t pc) {
    if (links[0].target != nullptr && links[0].pc == pc) return links[0].target;
    if (links[1].target != nullptr && links[1].pc == pc) return links[1].target;
    return nullptr;
  }
};

class BlockCache {
 public:
  // Blocks never grow past this many instructions; long straight-line runs
  // are split so the run loop's instruction budget stays enforceable at
  // block granularity without starving on giant unrolled kernels.
  static constexpr std::uint32_t kMaxBlockLen = 256;

  // Branch-target cache geometry: direct-mapped, indexed by word address.
  static constexpr std::uint32_t kBtcEntries = 128;

  struct Stats {
    std::uint64_t blocks_morphed = 0;
    std::uint64_t insns_morphed = 0;
    std::uint64_t flushes = 0;
    std::uint64_t links_installed = 0;   // successor edges memoized
    std::uint64_t links_severed = 0;     // edges cut by invalidation
    std::uint64_t chain_hits = 0;        // dispatches entered via a link
    std::uint64_t btc_hits = 0;          // dispatches entered via the BTC
    std::uint64_t btc_misses = 0;        // BTC probes that fell through
    std::uint64_t lookup_fallbacks = 0;  // block transitions via full lookup
  };

  // `dcache` is the platform's predecoded text over
  // [code_base, code_base + 4*dcache.size()); the cache re-decodes entries
  // in place when stores invalidate them. Both must outlive the cache.
  BlockCache(Bus& bus, std::uint32_t code_base,
             std::vector<isa::DecodedInsn>& dcache);
  ~BlockCache();  // out of line: JitRuntime is incomplete here

  // Selects the ledger-tallying morph handler variants for every block
  // morphed from now on: hooks keeping a cost ledger (the board) need each
  // record's retire operands tallied into MorphCtx::ledger, everyone else
  // runs the plain variants. The executor sets it when it attaches the
  // cache; changing it once blocks exist throws std::logic_error.
  void set_tally(bool on);

  // Returns the block entered at `pc`, morphing it on first use. Returns
  // nullptr when `pc` is misaligned, outside the cached text, or when the
  // entry instruction terminates a block (CTI / invalid) — the caller falls
  // back to the single-step path for exact fault and delay-slot semantics.
  Block* lookup(std::uint32_t pc) {
    const std::uint32_t off = pc - code_base_;
    const std::uint32_t idx = off >> 2;
    if (off >= limit_ || (pc & 3u)) return nullptr;
    const std::int32_t slot = index_[idx];
    if (slot >= 0) return blocks_[static_cast<std::size_t>(slot)].get();
    if (slot == kNoBlock) return nullptr;
    return morph(idx);
  }

  // lookup() on a chain edge that no link or BTC entry resolved. May morph,
  // and thus may free graveyard blocks — callers must not touch a dead
  // predecessor afterwards.
  Block* lookup_fallback(std::uint32_t pc) {
    ++stats_.lookup_fallbacks;
    return lookup(pc);
  }

  // Branch-target cache for register-indirect exits: maps an arrived-at pc
  // to the block entered there. Entries pointing into a flushed block are
  // purged by invalidate(), so a hit is always live.
  Block* btc_lookup(std::uint32_t pc) {
    const BtcEntry& e = btc_[(pc >> 2) & (kBtcEntries - 1)];
    if (e.block != nullptr && e.pc == pc) {
      ++stats_.btc_hits;
      return e.block;
    }
    ++stats_.btc_misses;
    return nullptr;
  }

  void btc_insert(std::uint32_t pc, Block* block) {
    if (block->dead) return;
    btc_[(pc >> 2) & (kBtcEntries - 1)] = BtcEntry{pc, block};
  }

  // Memoizes `from`'s resolved exit edge (pc -> to). No-op when either side
  // is dead or both link slots already hold other edges.
  void install_link(Block& from, std::uint32_t pc, Block& to);

  void count_chain_hit() { ++stats_.chain_hits; }

  // Cheap range test used by store paths before paying for invalidate().
  bool covers_code(std::uint32_t ea) const { return ea - code_base_ < limit_; }

  // A store hit [ea, ea + bytes) inside the code range: re-decode the
  // touched words and flush every block overlapping them. Flushing is
  // two-sided: every predecessor edge into a flushed block is unlinked, the
  // flushed block's own out-edges are severed, and BTC entries naming it
  // are purged — so a chain in flight finishes its current trace and then
  // falls back to lookup() instead of following a stale pointer. A range
  // holding no covered word (see covered_) returns after the re-decode.
  void invalidate(std::uint32_t ea, std::uint32_t bytes);

  const Stats& stats() const { return stats_; }
  // Zeroes these counters and the jit's: Platform calls it when it installs
  // an image, so the counters always mean "since this image was installed".
  void reset_stats();

  // ---- JIT tier (Dispatch::kJit) ------------------------------------------
  // The runtime owning the executable arena and per-block code lives with
  // the cache so invalidation can unpatch emitted chain jumps exactly when
  // it severs the interpreter's chain links. ensure_jit() builds it on first
  // use; it returns nullptr when jit_available() is false (the executor then
  // stays on the kBlock path).
  JitRuntime* ensure_jit();
  JitRuntime* jit() { return jit_.get(); }

  // Compiler-facing views of the predecoded image: the jit compiles from
  // DecodedInsn (it needs has_imm, which MorphInsn erases), which is valid
  // because a live block proves its words are unchanged since morph time.
  const std::vector<isa::DecodedInsn>& dcache() const { return dcache_; }
  std::uint32_t code_base() const { return code_base_; }
  std::uint32_t code_limit() const { return limit_; }

 private:
  static constexpr std::int32_t kUnknown = -1;
  static constexpr std::int32_t kNoBlock = -2;

  struct BtcEntry {
    std::uint32_t pc = 0;
    Block* block = nullptr;
  };

  Block* morph(std::uint32_t idx);

  // Severs every chain edge into and out of `b` (both link slots and the
  // matching back-references) ahead of parking it in the graveyard.
  void unlink(Block& b);

  Bus& bus_;
  std::uint32_t code_base_;
  std::uint32_t limit_;  // byte size of the cached text
  std::vector<isa::DecodedInsn>& dcache_;
  // Word index of a block *entry* -> slot in blocks_, or kUnknown/kNoBlock.
  std::vector<std::int32_t> index_;
  // Per word: nonzero once any block's footprint has covered it — its trace
  // plus, after a CTI, the delay-slot word the jit may fold. Never cleared,
  // so it is a superset of every live block's footprint.
  std::vector<std::uint8_t> covered_;
  std::vector<std::unique_ptr<Block>> blocks_;
  // Invalidated blocks are parked here, not freed: a store inside the block
  // currently being executed must leave its morphed trace alive until the
  // dispatch loop returns to lookup(), which drains the graveyard.
  std::vector<std::unique_ptr<Block>> graveyard_;
  std::array<BtcEntry, kBtcEntries> btc_{};
  Stats stats_;
  bool tally_ = false;
  std::unique_ptr<JitRuntime> jit_;
};

inline void to_json(JsonWriter& w, const BlockCache::Stats& s) {
  w.begin_object().field("blocks_morphed", s.blocks_morphed);
  w.field("insns_morphed", s.insns_morphed).field("flushes", s.flushes);
  w.field("links_installed", s.links_installed);
  w.field("links_severed", s.links_severed);
  w.field("chain_hits", s.chain_hits).field("btc_hits", s.btc_hits);
  w.field("btc_misses", s.btc_misses);
  w.field("lookup_fallbacks", s.lookup_fallbacks).end_object();
}

}  // namespace nfp::sim
