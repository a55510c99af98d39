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
// Invalidation: the cached code range is the image's text section (see
// Platform::load), so stores to static data never reach it. A store that
// lands inside the text re-decodes the overwritten words and flushes every
// block overlapping them (taking effect at the next block entry; the
// remainder of a block already in flight completes from its morphed trace;
// the dispatch loop resolves every block exit through lookup(), which never
// returns a flushed block). Every word a block has ever
// covered is marked, and a store into text no block covers (a literal, a
// word never executed) stops after the re-decode without looking at any
// block. Code placed outside the text (in .data, say) is never cached: it
// single-steps with a fresh decode from RAM.
#pragma once

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

struct Block {
  std::uint32_t start = 0;  // entry pc
  std::uint32_t len = 0;    // instructions in the block (>= 1)
  // The last record is a morphed control transfer (bicc/fbfcc/call/jmpl)
  // that writes pc/npc itself; the executor then skips its sequential
  // pc/npc update. The CTI's delay slot always single-steps.
  bool ends_with_cti = false;
  // Terminating CTI is a jmpl: the exit target is register-dependent, so
  // the jit resolves it through its inline BTC instead of a patched jump.
  bool indirect_exit = false;
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
};

class BlockCache {
 public:
  // Blocks never grow past this many instructions; long straight-line runs
  // are split so the run loop's instruction budget stays enforceable at
  // block granularity without starving on giant unrolled kernels.
  static constexpr std::uint32_t kMaxBlockLen = 256;

  struct Stats {
    std::uint64_t blocks_morphed = 0;
    std::uint64_t insns_morphed = 0;
    std::uint64_t flushes = 0;
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

  // Cheap range test used by store paths before paying for invalidate().
  bool covers_code(std::uint32_t ea) const { return ea - code_base_ < limit_; }

  // A store hit [ea, ea + bytes) inside the code range: re-decode the
  // touched words and flush every block overlapping them. A flushed block
  // leaves the index (the next lookup() of its pc morphs afresh) and the
  // jit unpatches every emitted jump into or out of it, so a block in
  // flight finishes its current trace and the next transition resolves
  // anew. A range holding no covered word (see covered_) returns after the
  // re-decode.
  void invalidate(std::uint32_t ea, std::uint32_t bytes);

  const Stats& stats() const { return stats_; }
  // Zeroes these counters and the jit's: Platform calls it when it installs
  // an image, so the counters always mean "since this image was installed".
  void reset_stats();

  // ---- JIT tier (Dispatch::kJit) ------------------------------------------
  // The runtime owning the executable arena and per-block code lives with
  // the cache so invalidation can unpatch emitted chain jumps exactly when
  // it flushes a block. ensure_jit() builds it on first use; it returns
  // nullptr when jit_available() is false (the executor then stays on the
  // kBlock path).
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

  Block* morph(std::uint32_t idx);

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
  Stats stats_;
  bool tally_ = false;
  std::unique_ptr<JitRuntime> jit_;
};

inline void to_json(JsonWriter& w, const BlockCache::Stats& s) {
  w.begin_object().field("blocks_morphed", s.blocks_morphed);
  w.field("insns_morphed", s.insns_morphed).field("flushes", s.flushes);
  w.end_object();
}

}  // namespace nfp::sim
