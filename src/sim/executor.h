// Templated SPARC V8 execution core.
//
// One step = decode (via a predecoded cache over the program image) +
// "morph" dispatch (Fig. 2/3 of the paper: decode entries map to grouped
// execution functions) + a retire hook. The hook parameter is what
// distinguishes the functional simulator, the counting ISS, and the
// measurement board — all three share this single execution core.
//
// Three dispatch modes share the core:
//  - kStep: one instruction per dispatch through the op switch (always
//    available; the only mode for hooks that need per-instruction detail).
//  - kBlock: whole superblocks per dispatch through a BlockCache of morphed
//    handler traces, with batched retire accounting for hooks that declare
//    kBatchRetire (see block_cache.h). Blocks chain: resolved exits link
//    block to block (plus a branch-target cache for register-indirect
//    exits), so the hot loop re-enters BlockCache::lookup() only on
//    unresolved edges, budget exhaustion, faults, and flushed links.
//  - kJit: the x86-64 template JIT tier above the morph cache (sim/jit.h):
//    compiled blocks execute natively with retire counters and instret
//    batched to one add per counter per block, and resolved transitions
//    patched directly into the emitted code. Hooks keeping a cost ledger
//    (the board, sim/ledger.h) get its tallies emitted inline. Per-block
//    fallback to the kBlock interpreter for blocks the compiler rejects
//    (FPU), global fallback to chained kBlock when the host cannot execute
//    emitted code.
//
// Hooks may expose three optional members, detected rather than declared:
// `CostLedger* ledger()` (the block handlers and the jit tally dynamic
// costs into it), `bool admit_block(Block&)` (whole-block dispatch guard),
// and `void settle()` (called after every native run).
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
#include <span>

#include "isa/decode.h"
#include "isa/disasm.h"
#include "sim/block_cache.h"
#include "sim/bus.h"
#include "sim/cpu_state.h"
#include "sim/hooks.h"
#include "sim/jit.h"
#include "sim/ledger.h"
#include "sim/platform.h"

namespace nfp::sim {

// Execution-mode selector surfaced on the simulator front ends (and on the
// nfpc CLI as --dispatch={step,block,jit}).
enum class Dispatch { kStep, kBlock, kJit };

template <class Hooks>
class Executor {
 public:
  Executor(CpuState& state, Bus& bus, Hooks& hooks)
      : st_(state), bus_(bus), hooks_(hooks) {}

  // Predecoded instruction cache covering [base, base + 4*cache.size()).
  void set_decode_cache(std::uint32_t base,
                        std::span<const isa::DecodedInsn> cache) {
    cache_base_ = base;
    cache_ = cache;
  }

  // Attaches the superblock morph cache. Block dispatch engages only for
  // hook types with kBatchRetire; for all hook types an attached cache also
  // routes stores into the code range through invalidation, so self-modified
  // words are re-decoded instead of executed stale.
  void set_block_cache(BlockCache* cache) {
    block_cache_ = cache;
    if (cache != nullptr) cache->set_tally(kHasLedger);
  }

  // Selects the loop run() takes (default kBlock). Whole-block dispatch
  // (kBlock, kJit) engages only for batch-retire hooks with a block cache
  // attached; kJit additionally needs jit_available() and otherwise stays on
  // kBlock, so every mode is a safe request. kStep with a cache attached
  // keeps store invalidation live: every instruction goes through the op
  // switch, but stores into the code range still re-decode the image, so
  // the stepping reference stays meaningful on self-modifying programs.
  void set_dispatch(Dispatch dispatch) { dispatch_ = dispatch; }

  // Runs until halt or until `max_insns` more instructions retire.
  // Returns the number of instructions executed in this call.
  std::uint64_t run(std::uint64_t max_insns) {
    std::uint64_t executed = 0;
    if constexpr (Hooks::kBatchRetire) {
      if (block_cache_ != nullptr && dispatch_ != Dispatch::kStep) {
        if (dispatch_ == Dispatch::kJit) {
          if (JitRuntime* jr = block_cache_->ensure_jit()) {
            return run_jit(*jr, max_insns);
          }
        }
        while (!st_.halted && executed < max_insns) {
          // Block entry requires a sequential pc/npc pair: a delay-slot
          // instruction (npc already redirected) must single-step.
          const std::uint32_t pc = st_.pc;
          if (st_.npc == pc + 4) {
            Block* block = block_cache_->lookup(pc);
            if (block != nullptr && block->len <= max_insns - executed &&
                block_enterable(*block)) {
              executed += run_blocks(*block, max_insns - executed);
              continue;
            }
          }
          step();
          ++executed;
        }
        return executed;
      }
    }
    while (!st_.halted && executed < max_insns) {
      step();
      ++executed;
    }
    return executed;
  }

  void step() {
    const std::uint32_t pc = st_.pc;
    // Alignment is checked before the decode-cache lookup: a misaligned pc
    // inside the cached range would otherwise truncate to a word index and
    // execute the wrong instruction instead of faulting.
    if (pc & 3) fatal(pc, "misaligned pc");
    isa::DecodedInsn scratch;
    const isa::DecodedInsn* d;
    const std::uint32_t idx = (pc - cache_base_) / 4;
    if (idx < cache_.size()) {
      d = &cache_[idx];
    } else {
      scratch = isa::decode(bus_.load32(pc));
      d = &scratch;
    }
    execute(*d, pc);
    ++st_.instret;
  }

 private:
  using Op = isa::Op;

  static constexpr bool kHasLedger = requires(Hooks& h) { h.ledger(); };

  // Hooks with retire guards may refuse a block (see BlockGuard): it then
  // single-steps, so the guard faults at the exact offending instruction.
  bool block_enterable(Block& block) {
    if constexpr (requires { hooks_.admit_block(block); }) {
      return hooks_.admit_block(block);
    } else {
      return true;
    }
  }

  // Executes `first` and keeps dispatching successor blocks until a
  // transition fails to resolve, the next block would exceed `budget`,
  // control leaves block dispatch (delay-slot CTI, halt, no block at the
  // target), or a fault unwinds. Returns the number of instructions
  // retired. `budget` is exact: the loop never retires past it, the outer
  // loop single-steps the remainder. Transitions follow memoized exit edges
  // — chain links or the branch-target cache — and re-enter
  // BlockCache::lookup() only on unresolved edges (memoizing the result).
  std::uint64_t run_blocks(Block& first, std::uint64_t budget) {
    Block* block = &first;
    std::uint64_t executed = 0;
    for (;;) {
      exec_block(*block);
      executed += block->len;
      Block* const prev = block;
      if (prev->ends_with_cti && st_.npc != st_.pc + 4) {
        // True delay slot (npc redirected): single-step it. It may fault,
        // halt, or itself be a CTI — only a sequential pc/npc pair may
        // continue the chain.
        if (executed >= budget) return executed;
        step();
        ++executed;
        if (st_.halted || st_.npc != st_.pc + 4) return executed;
      }
      const std::uint32_t pc = st_.pc;
      Block* next = prev->chain_next(pc);
      if (next != nullptr) {
        block_cache_->count_chain_hit();
      } else {
        if (prev->indirect_exit) next = block_cache_->btc_lookup(pc);
        if (next == nullptr) {
          // A store inside prev's own trace may have flushed it; the
          // fallback lookup can morph and thereby drain the graveyard
          // keeping a dead prev alive, so decide link eligibility first.
          const bool prev_live = !prev->dead;
          next = block_cache_->lookup_fallback(pc);
          if (next == nullptr) return executed;
          if (prev_live) {
            if (prev->indirect_exit) {
              block_cache_->btc_insert(pc, next);
            } else {
              block_cache_->install_link(*prev, pc, *next);
            }
          }
        }
      }
      if (next->len > budget - executed) return executed;
      if (!block_enterable(*next)) return executed;
      block = next;
    }
  }

  // Dispatch::kJit host loop. Native code covers intra-block execution,
  // batched retire/instret accounting, cost-ledger tallies, and patched
  // block-to-block chaining; this loop covers everything else: delay slots
  // the compiler did not fold (single-step), pcs with no block, refused or
  // rejected blocks (step / exec_block, the per-block kBlock fallback),
  // budget tails, transition patching, and fault reconciliation.
  std::uint64_t run_jit(JitRuntime& jr, std::uint64_t max_insns) {
    jr.configure(&st_, counts_ptr(), ledger_ptr());
    std::uint64_t executed = 0;
    while (!st_.halted && executed < max_insns) {
      const std::uint32_t pc = st_.pc;
      if (st_.npc != pc + 4) {  // delay slot: single-step
        step();
        ++executed;
        continue;
      }
      // The source side of transition patching must be latched before
      // lookup(): a morph may drain the graveyard and free a flushed
      // predecessor (last_block() filters dead metas for exactly that).
      Block* const prev = jr.last_block();
      Block* block = block_cache_->lookup(pc);
      const std::uint64_t budget = max_insns - executed;
      if (block == nullptr || block->len > budget || !block_enterable(*block)) {
        step();
        ++executed;
        continue;
      }
      if (jr.ensure_compiled(*block) != Block::JitState::kCompiled) {
        exec_block(*block);  // rejected (FPU): kBlock fallback for one block
        executed += block->len;
        continue;
      }
      if (prev != nullptr && prev->jit_state == Block::JitState::kCompiled) {
        if (prev->indirect_exit) {
          // Register-indirect exits are not rel32-patchable; memoize the
          // resolved target in the inline BTC the emitted probe consults.
          jr.btc_insert(pc, *block);
        } else {
          jr.patch_transition(*prev->jit_meta, pc, *block);
        }
      }
      const std::uint64_t remaining = jr.enter(*block, budget);
      if (jr.faulted()) {
        const auto [meta, idx] = jr.take_fault();
        // The faulting block may have been flushed mid-flight (it stored
        // over itself before faulting); its Block object is still alive in
        // the graveyard — no lookup() has run since the native entry.
        const Block* fb = meta->block;
        // The faulting block's prologue claimed its full length from the
        // budget but only idx records retired; earlier blocks in the chain
        // settled their own accounting at their exits. Same protocol as
        // exec_block: state at the faulting instruction, prefix counted
        // (its ledger tallies already landed inline).
        executed += (budget - remaining) - (meta->len - idx);
        st_.pc = meta->start + 4 * idx;
        st_.npc = st_.pc + 4;
        st_.instret += idx;
        retire_prefix(fb->code.data(), idx);
        settle();
        std::rethrow_exception(jr.take_exception());
      }
      settle();
      executed += budget - remaining;
    }
    return executed;
  }

  // The retire-counter vector emitted code bumps at block exits; hooks
  // without one (NullHooks) run uncounted native code.
  std::uint64_t* counts_ptr() {
    if constexpr (kHasLedger) {
      return hooks_.ledger()->counts.data();
    } else if constexpr (requires { hooks_.counts; }) {
      return hooks_.counts.data();
    } else {
      return nullptr;
    }
  }

  CostLedger* ledger_ptr() {
    if constexpr (kHasLedger) {
      return hooks_.ledger();
    } else {
      return nullptr;
    }
  }

  void settle() {
    if constexpr (requires { hooks_.settle(); }) hooks_.settle();
  }

  // Retire accounting for the completed prefix of a faulted block, one op
  // at a time through the batch interface (dynamic ledger tallies were made
  // by the records themselves).
  void retire_prefix(const MorphInsn* code, std::uint32_t n) {
    for (std::uint32_t j = 0; j < n; ++j) {
      const BlockOpCount one{code[j].op, 1};
      hooks_.on_retire_block(&one, 1, 1);
    }
  }

  // Executes one morphed superblock: per-record function-pointer dispatch,
  // a single pc/npc update at block exit, and one batched retire. On a fault
  // the architectural state is restored to the faulting instruction and the
  // completed prefix retires op by op, so instret, op counts and the cost
  // ledger stay identical to the stepping path.
  void exec_block(const Block& block) {
    const MorphInsn* code = block.code.data();
    MorphCtx ctx{st_,  bus_,         *block_cache_, block.start,
                 code, st_.instret, ledger_ptr()};
    const std::uint32_t n = block.len;
    std::uint32_t i = 0;
    try {
      // instret is batched like the retire accounting (one add at block
      // exit); handlers that can observe it mid-block (MMIO word loads)
      // restore the exact value via MorphCtx::sync_instret first.
      for (; i < n; ++i) code[i].fn(code[i], ctx);
    } catch (...) {
      st_.pc = block.start + 4 * i;
      st_.npc = st_.pc + 4;
      st_.instret = ctx.entry_instret + i;
      retire_prefix(code, i);
      throw;
    }
    // A terminating CTI record has already written pc/npc (delay-slot
    // semantics); only straight-line blocks exit sequentially.
    if (!block.ends_with_cti) {
      st_.pc = block.start + 4 * n;
      st_.npc = st_.pc + 4;
    }
    st_.instret = ctx.entry_instret + n;
    hooks_.on_retire_block(block.profile.data(), block.profile.size(), n);
  }

  // Store paths call this when a block cache is attached: a store landing in
  // the code range re-decodes the words and flushes overlapping blocks.
  void invalidate_stored(Op op, std::uint32_t ea) const {
    std::uint32_t width = 4;
    switch (op) {
      case Op::kStb: width = 1; break;
      case Op::kSth: width = 2; break;
      case Op::kStd: case Op::kStdf: width = 8; break;
      default: break;
    }
    if (block_cache_->covers_code(ea) ||
        block_cache_->covers_code(ea + width - 1)) {
      block_cache_->invalidate(ea, width);
    }
  }

  [[noreturn]] void fatal(std::uint32_t pc, const std::string& what) const {
    char buf[64];
    std::snprintf(buf, sizeof buf, " at pc=0x%08x", pc);
    throw SimError("sim error: " + what + buf);
  }

  void advance() {
    st_.pc = st_.npc;
    st_.npc += 4;
  }

  void set_r(std::uint8_t rd, std::uint32_t value) {
    st_.r[rd] = value;
    st_.r[0] = 0;
  }

  std::uint32_t operand2(const isa::DecodedInsn& d) const {
    return d.has_imm ? static_cast<std::uint32_t>(d.imm) : st_.r[d.rs2];
  }

  void retire(const isa::DecodedInsn& d, const RetireInfo& info) {
    hooks_.on_retire(d, info);
  }

  void retire_simple(const isa::DecodedInsn& d, std::uint32_t pc,
                     std::uint32_t a, std::uint32_t b, std::uint32_t result) {
    if constexpr (Hooks::kWantsDetail) {
      RetireInfo info;
      info.pc = pc;
      info.a = a;
      info.b = b;
      info.result = result;
      retire(d, info);
    } else {
      retire(d, RetireInfo{});
    }
  }

  void set_icc_logic(std::uint32_t result) {
    st_.icc_n = (result >> 31) != 0;
    st_.icc_z = result == 0;
    st_.icc_v = false;
    st_.icc_c = false;
  }

  void set_icc_add(std::uint32_t a, std::uint32_t b, std::uint64_t wide) {
    const auto result = static_cast<std::uint32_t>(wide);
    st_.icc_n = (result >> 31) != 0;
    st_.icc_z = result == 0;
    st_.icc_c = (wide >> 32) != 0;
    st_.icc_v = (((~(a ^ b)) & (a ^ result)) >> 31) != 0;
  }

  void set_icc_sub(std::uint32_t a, std::uint32_t b, std::uint32_t borrow_in) {
    const std::uint32_t result = a - b - borrow_in;
    st_.icc_n = (result >> 31) != 0;
    st_.icc_z = result == 0;
    st_.icc_c = static_cast<std::uint64_t>(a) <
                static_cast<std::uint64_t>(b) + borrow_in;
    st_.icc_v = (((a ^ b) & (a ^ result)) >> 31) != 0;
  }

  // Truncating double->int32 conversion with saturation (defined behaviour
  // for out-of-range values; workloads never rely on the saturated cases).
  static std::int32_t to_int32(double value) {
    if (std::isnan(value)) return 0;
    if (value >= 2147483648.0) return std::numeric_limits<std::int32_t>::max();
    if (value < -2147483648.0) return std::numeric_limits<std::int32_t>::min();
    return static_cast<std::int32_t>(value);
  }

  void execute(const isa::DecodedInsn& d, std::uint32_t pc) {
    switch (d.op) {
      // ---- ALU ------------------------------------------------------------
      case Op::kAdd: case Op::kAddcc: case Op::kAddx: case Op::kAddxcc: {
        const std::uint32_t a = st_.r[d.rs1];
        const std::uint32_t b = operand2(d);
        const std::uint32_t cin =
            (d.op == Op::kAddx || d.op == Op::kAddxcc) && st_.icc_c ? 1 : 0;
        const std::uint64_t wide =
            std::uint64_t{a} + b + cin;
        if (d.op == Op::kAddcc || d.op == Op::kAddxcc) set_icc_add(a, b, wide);
        set_r(d.rd, static_cast<std::uint32_t>(wide));
        retire_simple(d, pc, a, b, static_cast<std::uint32_t>(wide));
        advance();
        return;
      }
      case Op::kSub: case Op::kSubcc: case Op::kSubx: case Op::kSubxcc: {
        const std::uint32_t a = st_.r[d.rs1];
        const std::uint32_t b = operand2(d);
        const std::uint32_t bin =
            (d.op == Op::kSubx || d.op == Op::kSubxcc) && st_.icc_c ? 1 : 0;
        const std::uint32_t result = a - b - bin;
        if (d.op == Op::kSubcc || d.op == Op::kSubxcc) set_icc_sub(a, b, bin);
        set_r(d.rd, result);
        retire_simple(d, pc, a, b, result);
        advance();
        return;
      }
      case Op::kAnd: case Op::kAndcc: case Op::kAndn: case Op::kAndncc:
      case Op::kOr: case Op::kOrcc: case Op::kOrn: case Op::kOrncc:
      case Op::kXor: case Op::kXorcc: case Op::kXnor: case Op::kXnorcc: {
        const std::uint32_t a = st_.r[d.rs1];
        const std::uint32_t b = operand2(d);
        std::uint32_t result = 0;
        bool cc = false;
        switch (d.op) {
          case Op::kAndcc: cc = true; [[fallthrough]];
          case Op::kAnd: result = a & b; break;
          case Op::kAndncc: cc = true; [[fallthrough]];
          case Op::kAndn: result = a & ~b; break;
          case Op::kOrcc: cc = true; [[fallthrough]];
          case Op::kOr: result = a | b; break;
          case Op::kOrncc: cc = true; [[fallthrough]];
          case Op::kOrn: result = a | ~b; break;
          case Op::kXorcc: cc = true; [[fallthrough]];
          case Op::kXor: result = a ^ b; break;
          case Op::kXnorcc: cc = true; [[fallthrough]];
          case Op::kXnor: result = ~(a ^ b); break;
          default: break;
        }
        if (cc) set_icc_logic(result);
        set_r(d.rd, result);
        retire_simple(d, pc, a, b, result);
        advance();
        return;
      }
      case Op::kSll: case Op::kSrl: case Op::kSra: {
        const std::uint32_t a = st_.r[d.rs1];
        const std::uint32_t count = operand2(d) & 31;
        std::uint32_t result;
        if (d.op == Op::kSll) {
          result = a << count;
        } else if (d.op == Op::kSrl) {
          result = a >> count;
        } else {
          result = static_cast<std::uint32_t>(
              static_cast<std::int32_t>(a) >> count);
        }
        set_r(d.rd, result);
        retire_simple(d, pc, a, count, result);
        advance();
        return;
      }
      case Op::kUmul: case Op::kUmulcc: case Op::kSmul: case Op::kSmulcc: {
        const std::uint32_t a = st_.r[d.rs1];
        const std::uint32_t b = operand2(d);
        std::uint64_t wide;
        if (d.op == Op::kUmul || d.op == Op::kUmulcc) {
          wide = std::uint64_t{a} * b;
        } else {
          wide = static_cast<std::uint64_t>(
              std::int64_t{static_cast<std::int32_t>(a)} *
              static_cast<std::int32_t>(b));
        }
        st_.y = static_cast<std::uint32_t>(wide >> 32);
        const auto result = static_cast<std::uint32_t>(wide);
        if (d.op == Op::kUmulcc || d.op == Op::kSmulcc) set_icc_logic(result);
        set_r(d.rd, result);
        retire_simple(d, pc, a, b, result);
        advance();
        return;
      }
      case Op::kUdiv: case Op::kUdivcc: {
        const std::uint32_t b = operand2(d);
        if (b == 0) fatal(pc, "integer division by zero");
        const std::uint64_t dividend =
            (std::uint64_t{st_.y} << 32) | st_.r[d.rs1];
        std::uint64_t q = dividend / b;
        bool overflow = false;
        if (q > 0xFFFFFFFFull) {
          q = 0xFFFFFFFFull;
          overflow = true;
        }
        const auto result = static_cast<std::uint32_t>(q);
        if (d.op == Op::kUdivcc) {
          set_icc_logic(result);
          st_.icc_v = overflow;
        }
        set_r(d.rd, result);
        retire_simple(d, pc, st_.r[d.rs1], b, result);
        advance();
        return;
      }
      case Op::kSdiv: case Op::kSdivcc: {
        const std::uint32_t b = operand2(d);
        if (b == 0) fatal(pc, "integer division by zero");
        const auto dividend = static_cast<std::int64_t>(
            (std::uint64_t{st_.y} << 32) | st_.r[d.rs1]);
        std::int64_t q = dividend / static_cast<std::int32_t>(b);
        bool overflow = false;
        if (q > std::numeric_limits<std::int32_t>::max()) {
          q = std::numeric_limits<std::int32_t>::max();
          overflow = true;
        } else if (q < std::numeric_limits<std::int32_t>::min()) {
          q = std::numeric_limits<std::int32_t>::min();
          overflow = true;
        }
        const auto result = static_cast<std::uint32_t>(q);
        if (d.op == Op::kSdivcc) {
          set_icc_logic(result);
          st_.icc_v = overflow;
        }
        set_r(d.rd, result);
        retire_simple(d, pc, st_.r[d.rs1], b, result);
        advance();
        return;
      }
      case Op::kRdy:
        set_r(d.rd, st_.y);
        retire_simple(d, pc, st_.y, 0, st_.y);
        advance();
        return;
      case Op::kWry:
        st_.y = st_.r[d.rs1] ^ operand2(d);
        retire_simple(d, pc, st_.r[d.rs1], operand2(d), st_.y);
        advance();
        return;
      case Op::kSave: case Op::kRestore: {
        // Flat register model: plain add without window rotation.
        const std::uint32_t a = st_.r[d.rs1];
        const std::uint32_t b = operand2(d);
        set_r(d.rd, a + b);
        retire_simple(d, pc, a, b, a + b);
        advance();
        return;
      }
      case Op::kSethi:
        set_r(d.rd, static_cast<std::uint32_t>(d.imm));
        retire_simple(d, pc, 0, static_cast<std::uint32_t>(d.imm),
                      static_cast<std::uint32_t>(d.imm));
        advance();
        return;
      case Op::kNop:
        retire_simple(d, pc, 0, 0, 0);
        advance();
        return;

      // ---- memory ----------------------------------------------------------
      case Op::kLd: case Op::kLdub: case Op::kLdsb: case Op::kLduh:
      case Op::kLdsh: case Op::kLdd: case Op::kLdf: case Op::kLddf: {
        const std::uint32_t ea = st_.r[d.rs1] + operand2(d);
        std::uint32_t data = 0;
        switch (d.op) {
          case Op::kLd:
            check_align(ea, 4, pc);
            data = bus_.load32(ea);
            set_r(d.rd, data);
            break;
          case Op::kLdub:
            data = bus_.load8(ea);
            set_r(d.rd, data);
            break;
          case Op::kLdsb:
            data = static_cast<std::uint32_t>(
                static_cast<std::int32_t>(static_cast<std::int8_t>(bus_.load8(ea))));
            set_r(d.rd, data);
            break;
          case Op::kLduh:
            check_align(ea, 2, pc);
            data = bus_.load16(ea);
            set_r(d.rd, data);
            break;
          case Op::kLdsh:
            check_align(ea, 2, pc);
            data = static_cast<std::uint32_t>(static_cast<std::int32_t>(
                static_cast<std::int16_t>(bus_.load16(ea))));
            set_r(d.rd, data);
            break;
          case Op::kLdd: {
            check_align(ea, 8, pc);
            if (d.rd & 1) fatal(pc, "ldd with odd rd");
            set_r(d.rd, bus_.load32(ea));
            data = bus_.load32(ea + 4);
            set_r(d.rd + 1, data);
            break;
          }
          case Op::kLdf:
            check_align(ea, 4, pc);
            data = bus_.load32(ea);
            st_.f[d.rd] = data;
            break;
          case Op::kLddf: {
            check_align(ea, 8, pc);
            if (d.rd & 1) fatal(pc, "lddf with odd rd");
            st_.f[d.rd] = bus_.load32(ea);
            data = bus_.load32(ea + 4);
            st_.f[d.rd + 1] = data;
            break;
          }
          default: break;
        }
        retire_mem(d, pc, ea, data);
        advance();
        return;
      }
      case Op::kSt: case Op::kStb: case Op::kSth: case Op::kStd:
      case Op::kStf: case Op::kStdf: {
        const std::uint32_t ea = st_.r[d.rs1] + operand2(d);
        std::uint32_t data = 0;
        switch (d.op) {
          case Op::kSt:
            check_align(ea, 4, pc);
            data = st_.r[d.rd];
            bus_.store32(ea, data);
            break;
          case Op::kStb:
            data = st_.r[d.rd] & 0xFF;
            bus_.store8(ea, static_cast<std::uint8_t>(data));
            break;
          case Op::kSth:
            check_align(ea, 2, pc);
            data = st_.r[d.rd] & 0xFFFF;
            bus_.store16(ea, static_cast<std::uint16_t>(data));
            break;
          case Op::kStd:
            check_align(ea, 8, pc);
            if (d.rd & 1) fatal(pc, "std with odd rd");
            bus_.store32(ea, st_.r[d.rd]);
            data = st_.r[d.rd + 1];
            bus_.store32(ea + 4, data);
            break;
          case Op::kStf:
            check_align(ea, 4, pc);
            data = st_.f[d.rd];
            bus_.store32(ea, data);
            break;
          case Op::kStdf:
            check_align(ea, 8, pc);
            if (d.rd & 1) fatal(pc, "stdf with odd rd");
            bus_.store32(ea, st_.f[d.rd]);
            data = st_.f[d.rd + 1];
            bus_.store32(ea + 4, data);
            break;
          default: break;
        }
        if (block_cache_ != nullptr) invalidate_stored(d.op, ea);
        retire_mem(d, pc, ea, data);
        advance();
        return;
      }

      // ---- control ----------------------------------------------------------
      case Op::kBicc: case Op::kFbfcc: {
        const bool taken =
            d.op == Op::kBicc
                ? st_.eval_cond(static_cast<isa::Cond>(d.cond))
                : st_.eval_fcond(static_cast<isa::FCond>(d.cond));
        const std::uint32_t target = pc + static_cast<std::uint32_t>(d.imm);
        const bool always = d.cond == 8;
        const bool annul_delay = d.annul && (always || !taken);
        if (annul_delay) {
          st_.pc = taken ? target : st_.npc + 4;
          st_.npc = st_.pc + 4;
        } else {
          st_.pc = st_.npc;
          st_.npc = taken ? target : st_.npc + 4;
        }
        retire_branch(d, pc, taken);
        return;
      }
      case Op::kCall: {
        set_r(isa::kRegO7, pc);
        const std::uint32_t target = pc + static_cast<std::uint32_t>(d.imm);
        st_.pc = st_.npc;
        st_.npc = target;
        retire_branch(d, pc, true);
        return;
      }
      case Op::kJmpl: {
        const std::uint32_t target = st_.r[d.rs1] + operand2(d);
        if (target & 3) fatal(pc, "jmpl to misaligned address");
        set_r(d.rd, pc);
        st_.pc = st_.npc;
        st_.npc = target;
        retire_branch(d, pc, true);
        return;
      }
      case Op::kTicc: {
        const bool taken = st_.eval_cond(static_cast<isa::Cond>(d.cond));
        if (taken) {
          const std::int32_t trap =
              static_cast<std::int32_t>(st_.r[d.rs1] + operand2(d)) & 0x7F;
          if (trap == kTrapHalt) {
            st_.halted = true;
            st_.exit_code = st_.r[8];  // %o0
          } else {
            fatal(pc, "unhandled software trap " + std::to_string(trap));
          }
        }
        retire_branch(d, pc, taken);
        if (!st_.halted) advance();
        return;
      }

      // ---- FPU ---------------------------------------------------------------
      case Op::kFadds: case Op::kFsubs: case Op::kFmuls: case Op::kFdivs: {
        const float a = st_.read_s(d.rs1);
        const float b = st_.read_s(d.rs2);
        float result = 0;
        switch (d.op) {
          case Op::kFadds: result = a + b; break;
          case Op::kFsubs: result = a - b; break;
          case Op::kFmuls: result = a * b; break;
          case Op::kFdivs: result = a / b; break;
          default: break;
        }
        st_.write_s(d.rd, result);
        retire_fp(d, pc, st_.f[d.rs1], st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      }
      case Op::kFaddd: case Op::kFsubd: case Op::kFmuld: case Op::kFdivd: {
        const double a = st_.read_d(d.rs1);
        const double b = st_.read_d(d.rs2);
        double result = 0;
        switch (d.op) {
          case Op::kFaddd: result = a + b; break;
          case Op::kFsubd: result = a - b; break;
          case Op::kFmuld: result = a * b; break;
          case Op::kFdivd: result = a / b; break;
          default: break;
        }
        st_.write_d(d.rd, result);
        retire_fp(d, pc, st_.f[d.rs1], st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      }
      case Op::kFsqrts:
        st_.write_s(d.rd, std::sqrt(st_.read_s(d.rs2)));
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFsqrtd:
        st_.write_d(d.rd, std::sqrt(st_.read_d(d.rs2)));
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFmovs:
        st_.f[d.rd] = st_.f[d.rs2];
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFnegs:
        st_.f[d.rd] = st_.f[d.rs2] ^ 0x80000000u;
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFabss:
        st_.f[d.rd] = st_.f[d.rs2] & 0x7FFFFFFFu;
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFitos:
        st_.write_s(d.rd, static_cast<float>(
                              static_cast<std::int32_t>(st_.f[d.rs2])));
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFitod:
        st_.write_d(d.rd, static_cast<double>(
                              static_cast<std::int32_t>(st_.f[d.rs2])));
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFstoi:
        st_.f[d.rd] = static_cast<std::uint32_t>(
            to_int32(static_cast<double>(st_.read_s(d.rs2))));
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFdtoi:
        st_.f[d.rd] =
            static_cast<std::uint32_t>(to_int32(st_.read_d(d.rs2)));
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFstod:
        st_.write_d(d.rd, static_cast<double>(st_.read_s(d.rs2)));
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFdtos:
        st_.write_s(d.rd, static_cast<float>(st_.read_d(d.rs2)));
        retire_fp(d, pc, 0, st_.f[d.rs2], st_.f[d.rd]);
        advance();
        return;
      case Op::kFcmps: case Op::kFcmpd: {
        double a, b;
        if (d.op == Op::kFcmps) {
          a = st_.read_s(d.rs1);
          b = st_.read_s(d.rs2);
        } else {
          a = st_.read_d(d.rs1);
          b = st_.read_d(d.rs2);
        }
        if (std::isnan(a) || std::isnan(b)) {
          st_.fcc = 3;
        } else if (a == b) {
          st_.fcc = 0;
        } else if (a < b) {
          st_.fcc = 1;
        } else {
          st_.fcc = 2;
        }
        retire_fp(d, pc, st_.f[d.rs1], st_.f[d.rs2], st_.fcc);
        advance();
        return;
      }

      case Op::kInvalid:
      default:
        fatal(pc, "illegal instruction " + isa::disassemble(d, pc));
    }
  }

  void retire_mem(const isa::DecodedInsn& d, std::uint32_t pc,
                  std::uint32_t ea, std::uint32_t data) {
    if constexpr (Hooks::kWantsDetail) {
      RetireInfo info;
      info.pc = pc;
      info.ea = ea;
      info.mem_data = data;
      retire(d, info);
    } else {
      retire(d, RetireInfo{});
    }
  }

  void retire_branch(const isa::DecodedInsn& d, std::uint32_t pc, bool taken) {
    if constexpr (Hooks::kWantsDetail) {
      RetireInfo info;
      info.pc = pc;
      info.taken = taken;
      retire(d, info);
    } else {
      retire(d, RetireInfo{});
    }
  }

  void retire_fp(const isa::DecodedInsn& d, std::uint32_t pc, std::uint32_t a,
                 std::uint32_t b, std::uint32_t result) {
    retire_simple(d, pc, a, b, result);
  }

  void check_align(std::uint32_t ea, std::uint32_t align, std::uint32_t pc) {
    if (ea & (align - 1)) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "misaligned %u-byte access to 0x%08x",
                    align, ea);
      fatal(pc, buf);
    }
  }

  CpuState& st_;
  Bus& bus_;
  Hooks& hooks_;
  std::uint32_t cache_base_ = 0;
  std::span<const isa::DecodedInsn> cache_;
  BlockCache* block_cache_ = nullptr;
  Dispatch dispatch_ = Dispatch::kBlock;
};

// Runs `hooks` over a loaded platform under `dispatch`. The block cache is
// attached in every mode so stores into code re-decode the image (kStep
// only opts out of whole-block dispatch); the simulator front ends all run
// through here.
template <class Hooks>
RunResult run_platform(Platform& platform, Hooks& hooks,
                       std::uint64_t max_insns, Dispatch dispatch) {
  Executor<Hooks> exec(platform.cpu(), platform.bus(), hooks);
  exec.set_decode_cache(platform.code_base(), platform.decode_cache());
  exec.set_block_cache(platform.block_cache());
  exec.set_dispatch(dispatch);
  exec.run(max_insns);
  const CpuState& cpu = platform.cpu();
  return RunResult{cpu.halted, cpu.instret, cpu.exit_code};
}

}  // namespace nfp::sim
