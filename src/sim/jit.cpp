// x86-64 backend of the template JIT (see jit.h for the architecture and
// docs/jit.md for the template shapes). Split in three parts:
//
//  1. the W^X arena + entry thunk (JitRuntime::Impl),
//  2. the generic slow-path helper nfp_jit_exec_insn — every record the
//     templates do not model natively re-executes through the block's own
//     morph handler, so the slow path is interpreter-identical by
//     construction (including faults, MMIO instret sync, and store
//     invalidation),
//  3. the per-block code generator (BlockCompiler).
//
// Register pinning inside emitted code (all callee-saved, so helper calls
// need no spills):
//   %rbx  &CpuState            %r13  remaining instruction budget
//   %r12  ram_data()-kRamBase  %r14  &JitRt
//   %r15  &CostLedger (only addressed when one is bound)
// %eax/%ecx/%edx are scratch. Blocks run with %rsp ≡ 0 (mod 16), so the
// helper is entered at the SysV-required alignment.
#include "sim/jit.h"

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "asmkit/x64.h"
#include "isa/insn.h"
#include "sim/ledger.h"
#include "sim/memmap.h"

#if NFP_JIT_ENABLED
#include <sys/mman.h>
#endif

namespace nfp::sim {

namespace {
[[maybe_unused]] bool g_jit_forced_off = false;
}  // namespace

void jit_set_forced_off(bool off) { g_jit_forced_off = off; }

#if !NFP_JIT_ENABLED

// ---- foreign-host stubs ----------------------------------------------------
// Everything links, jit_available() is constant-false, and BlockCache never
// constructs a runtime — but keep the methods callable so a defect in the
// gating degrades to "no jit" instead of UB.

bool jit_available() { return false; }

struct JitRuntime::Impl {};

JitRuntime::JitRuntime(Bus& bus, BlockCache& cache) : bus_(bus), cache_(cache) {}
JitRuntime::~JitRuntime() = default;
bool JitRuntime::ok() const { return false; }
void JitRuntime::configure(CpuState*, std::uint64_t*, CostLedger*) {}
void JitRuntime::btc_insert(std::uint32_t, Block&) {}
Block::JitState JitRuntime::ensure_compiled(Block& b) {
  b.jit_state = Block::JitState::kRejected;
  return b.jit_state;
}
std::uint64_t JitRuntime::enter(Block&, std::uint64_t budget) { return budget; }
std::pair<const JitBlockMeta*, std::uint32_t> JitRuntime::take_fault() {
  return {nullptr, 0};
}
Block* JitRuntime::last_block() const { return nullptr; }
void JitRuntime::patch_transition(JitBlockMeta&, std::uint32_t, Block&) {}
void JitRuntime::on_block_death(Block&) {}
void JitRuntime::reset_code() {}

#else  // NFP_JIT_ENABLED

// Emitted code addresses CpuState and JitRt fields by constant displacement;
// pin the layouts the templates assume.
static_assert(std::is_standard_layout_v<CpuState>);
static_assert(offsetof(CpuState, r) == 0);
static_assert(offsetof(CpuState, f) == 128);
static_assert(offsetof(CpuState, pc) == 256);
static_assert(offsetof(CpuState, npc) == 260);
static_assert(offsetof(CpuState, y) == 264);
static_assert(offsetof(CpuState, icc_n) == 268);
static_assert(offsetof(CpuState, icc_z) == 269);
static_assert(offsetof(CpuState, icc_v) == 270);
static_assert(offsetof(CpuState, icc_c) == 271);
static_assert(offsetof(CpuState, fcc) == 272);
static_assert(offsetof(CpuState, instret) == 280);
static_assert(sizeof(bool) == 1);

static_assert(std::is_standard_layout_v<JitRt>);
static_assert(offsetof(JitRt, cpu) == 0);
static_assert(offsetof(JitRt, ram_bias) == 8);
static_assert(offsetof(JitRt, touched) == 16);
static_assert(offsetof(JitRt, counts) == 24);
static_assert(offsetof(JitRt, cur_meta) == 32);
static_assert(offsetof(JitRt, fault_idx) == 40);
static_assert(offsetof(JitRt, ledger) == 56);
static_assert(offsetof(JitRt, btc) == 64);
static_assert(offsetof(JitRt, btc_hits) == 72);
static_assert(sizeof(JitBtcSlot) == 16);

// Ledger tallies are addressed as [%r15 + field + 8*op].
static_assert(std::is_standard_layout_v<CostLedger>);
static_assert(offsetof(CostLedger, prev_a) == 0);
static_assert(offsetof(CostLedger, prev_b) == 4);
static_assert(offsetof(CostLedger, prev_addr) == 8);
static_assert(offsetof(CostLedger, open_row) == 12);

namespace {

bool probe_exec_pages() {
  static int result = -1;
  if (result < 0) {
    void* p = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      result = 0;
    } else {
      result = ::mprotect(p, 4096, PROT_READ | PROT_EXEC) == 0 ? 1 : 0;
      ::munmap(p, 4096);
    }
  }
  return result == 1;
}

}  // namespace

bool jit_available() { return !g_jit_forced_off && probe_exec_pages(); }

namespace {
// Toggle tallies are one popcnt each; hosts without the instruction keep
// toggle-varying ledgers on the interpreter (BlockCompiler refuses).
bool host_has_popcnt() {
  static const bool has = __builtin_cpu_supports("popcnt");
  return has;
}
}  // namespace

// ---- generic slow path -----------------------------------------------------
// Called from emitted code (rdi = &JitRt, esi = record index). Re-executes
// one record through the block's own morph handler (which tallies into the
// bound cost ledger like any interpreted record) and returns 0; on a fault
// stashes the exception and the record index and returns 1 (the native code
// then bails through a bare `ret` and the host reconciles). instret is
// saved/restored around the handler: the handler syncs it for MMIO loads
// (entry_instret is passed as the architectural value at block entry), but
// the batched block-exit add must still see the un-synced value.
extern "C" std::uint64_t nfp_jit_exec_insn(JitRt* rt, std::uint32_t idx) {
  const auto* meta = static_cast<const JitBlockMeta*>(rt->cur_meta);
  Block* b = meta->block;
  CpuState& st = *rt->cpu;
  JitRuntime* jr = rt->owner;
  jr->count_helper_exec();
  MorphCtx ctx{st, jr->bus(), jr->cache(), b->start, b->code.data(),
               st.instret, rt->ledger};
  const std::uint64_t saved = st.instret;
  try {
    const MorphInsn& m = b->code[idx];
    m.fn(m, ctx);
    st.instret = saved;
    return 0;
  } catch (...) {
    st.instret = saved;
    jr->stash_exception(std::current_exception());
    rt->fault_idx = idx;
    return 1;
  }
}

namespace {

namespace x = asmkit::x64;
using x::Cc;
using x::Gp;
using isa::Op;

constexpr Gp kCpu = Gp::rbx;
constexpr Gp kRam = Gp::r12;
constexpr Gp kBudget = Gp::r13;
constexpr Gp kRt = Gp::r14;
constexpr Gp kLedger = Gp::r15;

constexpr std::int32_t kOffPc = 256;
constexpr std::int32_t kOffNpc = 260;
constexpr std::int32_t kOffY = 264;
constexpr std::int32_t kOffN = 268;
constexpr std::int32_t kOffZ = 269;
constexpr std::int32_t kOffV = 270;
constexpr std::int32_t kOffC = 271;
constexpr std::int32_t kOffFcc = 272;
constexpr std::int32_t kOffInstret = 280;

constexpr std::int32_t kRtTouched = 16;
constexpr std::int32_t kRtCounts = 24;
constexpr std::int32_t kRtCurMeta = 32;
constexpr std::int32_t kRtLedger = 56;
constexpr std::int32_t kRtBtc = 64;
constexpr std::int32_t kRtBtcHits = 72;

constexpr std::int32_t kLgPrevA = offsetof(CostLedger, prev_a);
constexpr std::int32_t kLgPrevB = offsetof(CostLedger, prev_b);
constexpr std::int32_t kLgPrevAddr = offsetof(CostLedger, prev_addr);
constexpr std::int32_t kLgOpenRow = offsetof(CostLedger, open_row);

// [%r15 + tally + 8*op]: one op's slot of a CostLedger tally array.
x::Mem tally_m(std::size_t tally, isa::Op op) {
  return x::ptr(kLedger, static_cast<std::int32_t>(
                             tally + 8 * static_cast<std::size_t>(op)));
}

x::Mem reg_m(std::uint32_t r) {
  return x::ptr(kCpu, 4 * static_cast<std::int32_t>(r));
}

// Ops safe to fold into a CTI's budget-checked taken path: statically
// non-faulting, no memory traffic, no pc/npc access. Everything else leaves
// the delay slot to the host's single-step (the interpreter's own shape).
bool delay_foldable(Op op) {
  if (op >= Op::kAdd && op <= Op::kSmulcc) return true;  // ALU incl. shifts
  switch (op) {
    case Op::kSethi: case Op::kNop: case Op::kRdy: case Op::kWry:
    case Op::kSave: case Op::kRestore:
      return true;
    default:
      return false;
  }
}

// Per-block code generator. Compiles from the predecoded DecodedInsn image
// (MorphInsn erases has_imm); valid because a live block proves its words
// are unchanged since morph time.
class BlockCompiler {
 public:
  BlockCompiler(BlockCache& cache, const Block& b, const JitBlockMeta* meta,
                bool counted, const CostLedger* ledger)
      : b_(b),
        meta_(meta),
        counted_(counted),
        ledger_(ledger),
        dcache_(cache.dcache()),
        word0_((b.start - cache.code_base()) / 4),
        code_base_(cache.code_base()),
        code_limit_(cache.code_limit()) {}

  bool compile();
  const x::Emitter& emitter() const { return e_; }
  std::vector<JitExit> take_exits() { return std::move(exits_); }
  bool folds_delay() const { return folds_delay_; }

 private:
  struct ColdCall {
    x::Label slow;
    x::Label resume;
    std::uint32_t idx = 0;
    bool returns = true;  // false: the helper is known to fault (jmpl align)
  };
  // Out-of-line SDRAM row-miss tally of one memory op (%ecx = new row,
  // %eax = the access's toggle popcount).
  struct RowMiss {
    x::Label entry;
    x::Label resume;
    Op op = Op::kInvalid;
  };

  ColdCall& new_cold(std::uint32_t idx, bool returns = true) {
    colds_.push_back(ColdCall{});
    colds_.back().idx = idx;
    colds_.back().returns = returns;
    return colds_.back();
  }

  void emit_insn(const isa::DecodedInsn& d, std::uint32_t i);
  void emit_load(const isa::DecodedInsn& d, std::uint32_t i);
  void emit_store(const isa::DecodedInsn& d, std::uint32_t i);
  void emit_cti(const isa::DecodedInsn& d);
  void emit_jmpl(const isa::DecodedInsn& d, std::uint32_t cti_pc, bool fold,
                 const isa::DecodedInsn* delay);
  void emit_icc_test(std::uint8_t cond, x::Label& taken);
  void emit_fcc_test(std::uint8_t cond, x::Label& taken);
  void emit_delayed_exit(std::uint32_t cti_pc, std::uint32_t target, bool fold,
                         const isa::DecodedInsn* delay);
  void emit_static_exit(std::uint32_t exit_pc, std::uint32_t retired,
                        int extra_op, int cti_taken = -1);
  void emit_counts(int extra_op);
  void emit_helper_inline(std::uint32_t i);
  void emit_ea(const isa::DecodedInsn& d);

  // ---- cost-ledger tallies (sim/ledger.h) --------------------------------
  // True when op's retire operands feed the ledger's operand-toggle tally.
  bool tallies_operands(Op op) const {
    if (ledger_ == nullptr || !ledger_->variation) return false;
    const ResidualKind k = ledger_->kind[static_cast<std::size_t>(op)];
    return k == ResidualKind::kNone || k == ResidualKind::kFpVariable;
  }
  void emit_retire_operands(const isa::DecodedInsn& d);
  void emit_operand_toggles(Op op);
  void emit_memory_tally(Op op);
  void emit_untaken_tally() {
    if (ledger_ == nullptr) return;
    e_.add_mi64(tally_m(offsetof(CostLedger, untaken),
                        dcache_[word0_ + b_.len - 1].op),
                1);
  }

  void store_rd(const isa::DecodedInsn& d) {
    if (d.rd != 0) e_.mov_mr(reg_m(d.rd), Gp::rax);
  }
  // Flag materialization after an add/adc/sub/sbb on %eax: x86 SF/ZF/OF/CF
  // coincide with SPARC icc n/z/v/c for these ops (incl. the carry-in
  // forms), so four setcc writes produce the architectural bool bytes.
  void emit_arith_cc() {
    e_.setcc_m(Cc::kS, x::ptr(kCpu, kOffN));
    e_.setcc_m(Cc::kE, x::ptr(kCpu, kOffZ));
    e_.setcc_m(Cc::kO, x::ptr(kCpu, kOffV));
    e_.setcc_m(Cc::kB, x::ptr(kCpu, kOffC));
  }
  void emit_logic_cc() {  // n/z from the last ALU op, v = c = 0
    e_.setcc_m(Cc::kS, x::ptr(kCpu, kOffN));
    e_.setcc_m(Cc::kE, x::ptr(kCpu, kOffZ));
    e_.mov_mi8(x::ptr(kCpu, kOffV), 0);
    e_.mov_mi8(x::ptr(kCpu, kOffC), 0);
  }

  const Block& b_;
  const JitBlockMeta* meta_;
  bool counted_;
  const CostLedger* ledger_;  // null: no cost tallies
  const std::vector<isa::DecodedInsn>& dcache_;
  std::uint32_t word0_;
  std::uint32_t code_base_;
  std::uint32_t code_limit_;

  x::Emitter e_;
  x::Label bail_;
  x::Label fault_;
  std::vector<ColdCall> colds_;
  std::vector<RowMiss> row_misses_;
  std::vector<JitExit> exits_;
  bool folds_delay_ = false;
  bool failed_ = false;
};

bool BlockCompiler::compile() {
  // Toggle tallies need the host's popcnt.
  if (ledger_ != nullptr && ledger_->variation && !host_has_popcnt()) {
    return false;
  }
  // FPU state lives only in CpuState::f with no template coverage; blocks
  // touching it run through exec_block instead (per-block kBlock fallback).
  // So do a cached board's loads: the data-cache lookup is not templated.
  for (const BlockOpCount& p : b_.profile) {
    const Op op = static_cast<Op>(p.op);
    if (isa::is_fpu(op) || op == Op::kLdf || op == Op::kLddf ||
        op == Op::kStf || op == Op::kStdf) {
      return false;
    }
    if (ledger_ != nullptr && ledger_->has_cache() && isa::is_load(op)) {
      return false;
    }
  }

  const std::uint32_t len = b_.len;
  // Prologue: budget check (bail leaves the budget untouched and
  // materializes pc/npc at the block entry — a patched chain arrives here
  // without going through any exit stub), then announce this block as the
  // running one and claim its retirement from the budget.
  e_.cmp_ri64(kBudget, static_cast<std::int32_t>(len));
  e_.jcc(Cc::kB, bail_);
  e_.mov_ri64(Gp::rax, reinterpret_cast<std::uint64_t>(meta_));
  e_.mov_mr64(x::ptr(kRt, kRtCurMeta), Gp::rax);
  e_.sub_ri64(kBudget, static_cast<std::int32_t>(len));

  const std::uint32_t body = b_.ends_with_cti ? len - 1 : len;
  for (std::uint32_t i = 0; i < body && !failed_; ++i) {
    emit_insn(dcache_[word0_ + i], i);
  }
  if (failed_) return false;
  if (b_.ends_with_cti) {
    emit_cti(dcache_[word0_ + len - 1]);
  } else {
    emit_static_exit(b_.start + 4 * len, len, -1);
  }
  if (failed_) return false;

  e_.bind(bail_);
  e_.mov_mi(x::ptr(kCpu, kOffPc), b_.start);
  e_.mov_mi(x::ptr(kCpu, kOffNpc), b_.start + 4);
  e_.ret();

  // Cold section: row-miss tallies, then one helper trampoline per
  // slow-path site. On success the native trace RESUMES — matching the
  // interpreter's stale-trace-in-flight semantics even when the record just
  // invalidated this very block.
  for (RowMiss& r : row_misses_) {
    e_.bind(r.entry);
    e_.mov_mr(x::ptr(kLedger, kLgOpenRow), Gp::rcx);
    e_.add_mi64(tally_m(offsetof(CostLedger, row_misses), r.op), 1);
    if (ledger_->variation) {
      e_.add_mr64(tally_m(offsetof(CostLedger, row_miss_toggles), r.op),
                  Gp::rax);
    }
    e_.jmp(r.resume);
  }
  for (ColdCall& c : colds_) {
    e_.bind(c.slow);
    emit_helper_inline(c.idx);
    if (c.returns) {
      e_.jmp(c.resume);
    } else {
      e_.int3();  // helper is known to fault; jnz above always leaves
    }
  }
  e_.bind(fault_);
  e_.ret();
  return true;
}

void BlockCompiler::emit_helper_inline(std::uint32_t i) {
  e_.mov_rr64(Gp::rdi, kRt);
  e_.mov_ri(Gp::rsi, i);
  e_.mov_ri64(Gp::rax, reinterpret_cast<std::uint64_t>(&nfp_jit_exec_insn));
  e_.call_r(Gp::rax);
  e_.test_rr(Gp::rax, Gp::rax);
  e_.jcc(Cc::kNe, fault_);
}

void BlockCompiler::emit_ea(const isa::DecodedInsn& d) {
  e_.mov_rm(Gp::rcx, reg_m(d.rs1));  // 32-bit move zero-extends %rcx
  if (d.has_imm) {
    if (d.imm != 0) e_.add_ri(Gp::rcx, static_cast<std::uint32_t>(d.imm));
  } else {
    e_.add_rm(Gp::rcx, reg_m(d.rs2));
  }
}

void BlockCompiler::emit_counts(int extra_op) {
  if (counted_) {
    e_.mov_rm64(Gp::rax, x::ptr(kRt, kRtCounts));
    for (const BlockOpCount& p : b_.profile) {
      e_.add_mi64(x::ptr(Gp::rax, 8 * static_cast<std::int32_t>(p.op)),
                  static_cast<std::int32_t>(p.count));
    }
    if (extra_op >= 0) e_.add_mi64(x::ptr(Gp::rax, 8 * extra_op), 1);
  }
}

void BlockCompiler::emit_static_exit(std::uint32_t exit_pc,
                                     std::uint32_t retired, int extra_op,
                                     int cti_taken) {
  if (cti_taken == 0) emit_untaken_tally();
  e_.add_mi64(x::ptr(kCpu, kOffInstret), static_cast<std::int32_t>(retired));
  emit_counts(extra_op);
  JitExit exit;
  exit.exit_pc = exit_pc;
  exit.patch_off = e_.jmp_patchable();
  exit.stub_off = e_.offset();
  e_.mov_mi(x::ptr(kCpu, kOffPc), exit_pc);
  e_.mov_mi(x::ptr(kCpu, kOffNpc), exit_pc + 4);
  e_.ret();
  exits_.push_back(exit);
}

void BlockCompiler::emit_delayed_exit(std::uint32_t cti_pc,
                                      std::uint32_t target, bool fold,
                                      const isa::DecodedInsn* delay) {
  if (fold) {
    folds_delay_ = true;
    x::Label pending;
    e_.test_rr64(kBudget, kBudget);
    e_.jcc(Cc::kE, pending);
    e_.sub_ri64(kBudget, 1);
    emit_insn(*delay, b_.len);  // foldable ops never take slow paths
    emit_static_exit(target, b_.len + 1, static_cast<int>(delay->op));
    e_.bind(pending);
  }
  // Budget exhausted (or unfoldable delay): the interpreter's post-CTI
  // state, pc at the delay slot with npc redirected; the host single-steps.
  e_.add_mi64(x::ptr(kCpu, kOffInstret), static_cast<std::int32_t>(b_.len));
  emit_counts(-1);
  e_.mov_mi(x::ptr(kCpu, kOffPc), cti_pc + 4);
  e_.mov_mi(x::ptr(kCpu, kOffNpc), target);
  e_.ret();
}

void BlockCompiler::emit_icc_test(std::uint8_t cond, x::Label& taken) {
  // Base condition from the icc bool bytes (cond & 7), negated forms jump
  // on the inverted test. Mirrors CpuState::eval_cond.
  switch (cond & 7) {
    case 1:  // e: z
      e_.movzx_rm8(Gp::rax, x::ptr(kCpu, kOffZ));
      break;
    case 2:  // le: z | (n ^ v)
      e_.movzx_rm8(Gp::rax, x::ptr(kCpu, kOffN));
      e_.xor_rm8(Gp::rax, x::ptr(kCpu, kOffV));
      e_.or_rm8(Gp::rax, x::ptr(kCpu, kOffZ));
      break;
    case 3:  // l: n ^ v
      e_.movzx_rm8(Gp::rax, x::ptr(kCpu, kOffN));
      e_.xor_rm8(Gp::rax, x::ptr(kCpu, kOffV));
      break;
    case 4:  // leu: c | z
      e_.movzx_rm8(Gp::rax, x::ptr(kCpu, kOffC));
      e_.or_rm8(Gp::rax, x::ptr(kCpu, kOffZ));
      break;
    case 5:  // cs: c
      e_.movzx_rm8(Gp::rax, x::ptr(kCpu, kOffC));
      break;
    case 6:  // neg: n
      e_.movzx_rm8(Gp::rax, x::ptr(kCpu, kOffN));
      break;
    default:  // vs: v
      e_.movzx_rm8(Gp::rax, x::ptr(kCpu, kOffV));
      break;
  }
  e_.test_rr(Gp::rax, Gp::rax);
  e_.jcc(cond < 8 ? Cc::kNe : Cc::kE, taken);
}

void BlockCompiler::emit_fcc_test(std::uint8_t cond, x::Label& taken) {
  // fcc is a 2-bit value; precompute the 4-bit truth mask of this condition
  // over all fcc values and test the bit at runtime.
  std::uint32_t mask = 0;
  CpuState probe;
  for (std::uint8_t fc = 0; fc < 4; ++fc) {
    probe.fcc = fc;
    if (probe.eval_fcond(static_cast<isa::FCond>(cond))) mask |= 1u << fc;
  }
  e_.movzx_rm8(Gp::rcx, x::ptr(kCpu, kOffFcc));
  e_.mov_ri(Gp::rax, mask);
  e_.bt_rr(Gp::rax, Gp::rcx);
  e_.jcc(Cc::kB, taken);
}

void BlockCompiler::emit_cti(const isa::DecodedInsn& d) {
  const std::uint32_t cti_pc = b_.start + 4 * (b_.len - 1);
  const std::uint32_t didx = word0_ + b_.len;
  const isa::DecodedInsn* delay =
      didx < dcache_.size() ? &dcache_[didx] : nullptr;
  // A step-only delay op must fault through the host's single-step.
  const bool fold =
      delay != nullptr && delay_foldable(delay->op) &&
      (ledger_ == nullptr ||
       !ledger_->step_only[static_cast<std::size_t>(delay->op)]);

  switch (d.op) {
    case Op::kCall: {
      e_.mov_mi(reg_m(isa::kRegO7), cti_pc);
      emit_delayed_exit(cti_pc, cti_pc + static_cast<std::uint32_t>(d.imm),
                        fold, delay);
      return;
    }
    case Op::kBicc:
    case Op::kFbfcc: {
      const std::uint32_t target = cti_pc + static_cast<std::uint32_t>(d.imm);
      if (d.cond == 8) {  // always
        if (d.annul) {
          // Annulled delay: skip it (a taken branch for the cost model).
          emit_static_exit(target, b_.len, -1, /*cti_taken=*/1);
        } else {
          emit_delayed_exit(cti_pc, target, fold, delay);
        }
        return;
      }
      if (d.cond == 0) {  // never
        emit_static_exit(d.annul ? cti_pc + 8 : cti_pc + 4, b_.len, -1,
                         /*cti_taken=*/0);
        return;
      }
      x::Label taken;
      if (d.op == Op::kBicc) {
        emit_icc_test(d.cond, taken);
      } else {
        emit_fcc_test(d.cond, taken);
      }
      // Untaken falls through (annul skips the delay slot entirely).
      emit_static_exit(d.annul ? cti_pc + 8 : cti_pc + 4, b_.len, -1,
                       /*cti_taken=*/0);
      e_.bind(taken);
      emit_delayed_exit(cti_pc, target, fold, delay);
      return;
    }
    case Op::kJmpl:
      emit_jmpl(d, cti_pc, fold, delay);
      return;
    default:
      failed_ = true;
      return;
  }
}

void BlockCompiler::emit_jmpl(const isa::DecodedInsn& d, std::uint32_t cti_pc,
                              bool fold, const isa::DecodedInsn* delay) {
  // Target in %ecx. Misaligned targets fault through the helper (which runs
  // h_jmpl and throws before any state change, like the interpreter).
  e_.mov_rm(Gp::rcx, reg_m(d.rs1));
  if (d.has_imm) {
    if (d.imm != 0) e_.add_ri(Gp::rcx, static_cast<std::uint32_t>(d.imm));
  } else {
    e_.add_rm(Gp::rcx, reg_m(d.rs2));
  }
  ColdCall& c = new_cold(b_.len - 1, /*returns=*/false);
  e_.test_ri(Gp::rcx, 3);
  e_.jcc(Cc::kNe, c.slow);
  if (d.rd != 0) e_.mov_mi(reg_m(d.rd), cti_pc);
  // Stash npc = target before the folded delay (which may overwrite %ecx's
  // source register but never reads pc/npc).
  e_.mov_mr(x::ptr(kCpu, kOffNpc), Gp::rcx);
  if (fold) {
    folds_delay_ = true;
    x::Label pending;
    e_.test_rr64(kBudget, kBudget);
    e_.jcc(Cc::kE, pending);
    e_.sub_ri64(kBudget, 1);
    emit_insn(*delay, b_.len);
    e_.mov_rm(Gp::rcx, x::ptr(kCpu, kOffNpc));
    e_.mov_mr(x::ptr(kCpu, kOffPc), Gp::rcx);
    e_.add_ri(Gp::rcx, 4);
    e_.mov_mr(x::ptr(kCpu, kOffNpc), Gp::rcx);
    e_.add_mi64(x::ptr(kCpu, kOffInstret),
                static_cast<std::int32_t>(b_.len + 1));
    emit_counts(static_cast<int>(delay->op));
    // Register-indirect exit: never rel32-patchable, but with pc/npc fully
    // settled it can probe the inline branch-target cache — a tag hit jumps
    // straight into the cached successor's prologue instead of returning to
    // the host loop on every indirect call/return.
    x::Label miss;
    e_.mov_rm(Gp::rcx, x::ptr(kCpu, kOffPc));
    e_.mov_rr(Gp::rax, Gp::rcx);
    e_.shr_ri(Gp::rax, 2);
    e_.and_ri(Gp::rax, JitRuntime::kInlineBtcEntries - 1);
    e_.shl_ri(Gp::rax, 4);  // 16-byte slots; the Mem index has no scale
    e_.mov_rm64(Gp::rdx, x::ptr(kRt, kRtBtc));
    e_.cmp_rm(Gp::rcx, x::ptr_idx(Gp::rdx, Gp::rax));
    e_.jcc(Cc::kNe, miss);
    e_.add_mi64(x::ptr(kRt, kRtBtcHits), 1);
    e_.jmp_m(x::ptr_idx(Gp::rdx, Gp::rax, 8));
    e_.bind(miss);
    e_.ret();
    e_.bind(pending);
  }
  e_.add_mi64(x::ptr(kCpu, kOffInstret), static_cast<std::int32_t>(b_.len));
  emit_counts(-1);
  e_.mov_mi(x::ptr(kCpu, kOffPc), cti_pc + 4);
  e_.ret();  // npc already holds the target
}

void BlockCompiler::emit_load(const isa::DecodedInsn& d, std::uint32_t i) {
  emit_ea(d);  // %ecx = ea
  ColdCall& c = new_cold(i);
  std::uint32_t align = 0;
  switch (d.op) {
    case Op::kLd: align = 3; break;
    case Op::kLduh: case Op::kLdsh: align = 1; break;
    case Op::kLdd: align = 7; break;
    default: break;  // byte loads
  }
  if (align != 0) {
    e_.test_ri(Gp::rcx, align);
    e_.jcc(Cc::kNe, c.slow);
  }
  // RAM range check; off-RAM (MMIO word loads, bad addresses) → helper.
  e_.lea_r32(Gp::rdx, x::ptr(Gp::rcx, -static_cast<std::int32_t>(kRamBase)));
  e_.cmp_ri(Gp::rdx, kRamSize);
  e_.jcc(Cc::kAe, c.slow);
  const x::Mem m = x::ptr_idx(kRam, Gp::rcx);
  switch (d.op) {
    case Op::kLd:
      e_.mov_rm(Gp::rax, m);
      e_.bswap_r(Gp::rax);
      store_rd(d);
      break;
    case Op::kLdub:
      e_.movzx_rm8(Gp::rax, m);
      store_rd(d);
      break;
    case Op::kLdsb:
      e_.movsx_rm8(Gp::rax, m);
      store_rd(d);
      break;
    case Op::kLduh:
      e_.movzx_rm16(Gp::rax, m);
      e_.ror16_ri(Gp::rax, 8);  // halfword byte swap
      store_rd(d);
      break;
    case Op::kLdsh:
      e_.movzx_rm16(Gp::rax, m);
      e_.ror16_ri(Gp::rax, 8);
      e_.movsx_rr16(Gp::rax, Gp::rax);
      store_rd(d);
      break;
    default: {  // kLdd, even rd (odd rd routed to the helper by the caller)
      e_.mov_rm(Gp::rax, m);
      e_.bswap_r(Gp::rax);
      if (d.rd != 0) e_.mov_mr(reg_m(d.rd), Gp::rax);  // rd 0 discards (g0)
      e_.mov_rm(Gp::rax, x::ptr_idx(kRam, Gp::rcx, 4));
      e_.bswap_r(Gp::rax);
      e_.mov_mr(reg_m(d.rd + 1u), Gp::rax);
      break;
    }
  }
  // Ledger tally of {ea, data}: %ecx still holds ea, %eax the (last)
  // loaded word — morph-exact. The helper path resumes past this (its
  // handler tallies instead).
  emit_memory_tally(d.op);
  e_.bind(c.resume);
}

void BlockCompiler::emit_store(const isa::DecodedInsn& d, std::uint32_t i) {
  emit_ea(d);  // %ecx = ea
  ColdCall& c = new_cold(i);
  std::uint32_t width = 4;
  switch (d.op) {
    case Op::kStb: width = 1; break;
    case Op::kSth: width = 2; break;
    case Op::kStd: width = 8; break;
    default: break;
  }
  if (width > 1) {
    e_.test_ri(Gp::rcx, width - 1);
    e_.jcc(Cc::kNe, c.slow);
  }
  e_.lea_r32(Gp::rdx, x::ptr(Gp::rcx, -static_cast<std::int32_t>(kRamBase)));
  e_.cmp_ri(Gp::rdx, kRamSize);
  e_.jcc(Cc::kAe, c.slow);
  // Self-modifying code guard: any store intersecting the cached code image
  // [code_base, code_base + limit) goes through the helper, whose h_store
  // invalidates overlapping blocks exactly like the interpreter.
  // Intersection over [ea, ea + width): ea - (code_base - (width-1)) <
  // limit + (width-1), unsigned.
  e_.lea_r32(Gp::rax,
             x::ptr(Gp::rcx,
                    -static_cast<std::int32_t>(code_base_ - (width - 1))));
  e_.cmp_ri(Gp::rax, code_limit_ + (width - 1));
  e_.jcc(Cc::kB, c.slow);
  const x::Mem m = x::ptr_idx(kRam, Gp::rcx);
  switch (d.op) {
    case Op::kSt:
      e_.mov_rm(Gp::rax, reg_m(d.rd));
      e_.bswap_r(Gp::rax);
      e_.mov_mr(m, Gp::rax);
      break;
    case Op::kStb:
      e_.mov_rm(Gp::rax, reg_m(d.rd));
      e_.mov_mr8(m, Gp::rax);
      break;
    case Op::kSth:
      e_.mov_rm(Gp::rax, reg_m(d.rd));
      e_.ror16_ri(Gp::rax, 8);
      e_.mov_mr16(m, Gp::rax);
      break;
    default:  // kStd, even rd
      e_.mov_rm(Gp::rax, reg_m(d.rd));
      e_.bswap_r(Gp::rax);
      e_.mov_mr(m, Gp::rax);
      e_.mov_rm(Gp::rax, reg_m(d.rd + 1u));
      e_.bswap_r(Gp::rax);
      e_.mov_mr(x::ptr_idx(kRam, Gp::rcx, 4), Gp::rax);
      break;
  }
  // Dirty-page flag, exactly like Bus::touch: aligned accesses never
  // straddle a 4 KiB granule, so one byte suffices. %edx still holds
  // ea - kRamBase from the range check.
  e_.shr_ri(Gp::rdx, 12);
  e_.mov_rm64(Gp::rax, x::ptr(kRt, kRtTouched));
  e_.mov_mi8(x::ptr_idx(Gp::rax, Gp::rdx), 1);
  // Ledger tally of {ea, masked data}: %ecx still holds ea; reload the
  // store data and mask it to the access width (h_store's tally shape, with
  // std tallying the second word).
  if (ledger_ != nullptr && ledger_->variation) {
    e_.mov_rm(Gp::rax, reg_m(d.op == Op::kStd ? d.rd + 1u : d.rd));
    if (d.op == Op::kStb) e_.and_ri(Gp::rax, 0xFF);
    if (d.op == Op::kSth) e_.and_ri(Gp::rax, 0xFFFF);
  }
  emit_memory_tally(d.op);
  e_.bind(c.resume);
}

// Retire operands {%ecx, %edx} of the statically non-faulting ALU class
// (exactly the delay-foldable set) as the morph handlers tally them,
// pre-writeback (see block_cache.cpp). Loads/stores tally at the end of
// their fast path, helper-routed records in their handler, the CTI at its
// exits.
void BlockCompiler::emit_retire_operands(const isa::DecodedInsn& d) {
  switch (d.op) {
    case Op::kNop:
      e_.xor_rr(Gp::rcx, Gp::rcx);
      e_.xor_rr(Gp::rdx, Gp::rdx);
      break;
    case Op::kSethi:
      e_.xor_rr(Gp::rcx, Gp::rcx);
      e_.mov_ri(Gp::rdx, static_cast<std::uint32_t>(d.imm));
      break;
    case Op::kRdy:
      e_.mov_rm(Gp::rcx, x::ptr(kCpu, kOffY));
      e_.xor_rr(Gp::rdx, Gp::rdx);
      break;
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:  // {a, shift count mod 32}
      e_.mov_rm(Gp::rcx, reg_m(d.rs1));
      if (d.has_imm) {
        e_.mov_ri(Gp::rdx, static_cast<std::uint32_t>(d.imm) & 31);
      } else {
        e_.mov_rm(Gp::rdx, reg_m(d.rs2));
        e_.and_ri(Gp::rdx, 31);
      }
      break;
    default:  // add/sub/logic/mul/wry/save/restore: {r[rs1], op2}
      e_.mov_rm(Gp::rcx, reg_m(d.rs1));
      if (d.has_imm) {
        e_.mov_ri(Gp::rdx, static_cast<std::uint32_t>(d.imm));
      } else {
        e_.mov_rm(Gp::rdx, reg_m(d.rs2));
      }
      break;
  }
}

// Operand-toggle tally of {%ecx, %edx}: toggles[op] += popcount(a ^ prev_a)
// + popcount(b ^ prev_b), then the pair becomes the new history.
void BlockCompiler::emit_operand_toggles(Op op) {
  e_.mov_rm(Gp::rax, x::ptr(kLedger, kLgPrevA));
  e_.xor_rr(Gp::rax, Gp::rcx);
  e_.popcnt_rr(Gp::rax, Gp::rax);
  e_.mov_mr(x::ptr(kLedger, kLgPrevA), Gp::rcx);
  e_.mov_rm(Gp::rcx, x::ptr(kLedger, kLgPrevB));
  e_.xor_rr(Gp::rcx, Gp::rdx);
  e_.popcnt_rr(Gp::rcx, Gp::rcx);
  e_.mov_mr(x::ptr(kLedger, kLgPrevB), Gp::rdx);
  e_.add_rr(Gp::rax, Gp::rcx);
  e_.add_mr64(tally_m(offsetof(CostLedger, toggles), op), Gp::rax);
}

// Memory tally of {%ecx = ea, %eax = data}, mirroring CostLedger::retire:
// the address/data toggle popcount, the address history, and the SDRAM
// open-row compare (a miss tallies out of line). Clobbers all three.
void BlockCompiler::emit_memory_tally(Op op) {
  if (ledger_ == nullptr) return;
  if (ledger_->variation) {
    e_.mov_rm(Gp::rdx, x::ptr(kLedger, kLgPrevAddr));
    e_.xor_rr(Gp::rdx, Gp::rcx);
    e_.popcnt_rr(Gp::rdx, Gp::rdx);
    e_.popcnt_rr(Gp::rax, Gp::rax);
    e_.add_rr(Gp::rax, Gp::rdx);
    e_.add_mr64(tally_m(offsetof(CostLedger, toggles), op), Gp::rax);
  }
  e_.mov_mr(x::ptr(kLedger, kLgPrevAddr), Gp::rcx);
  e_.shr_ri(Gp::rcx, static_cast<std::uint8_t>(ledger_->row_bits));
  e_.cmp_rm(Gp::rcx, x::ptr(kLedger, kLgOpenRow));
  row_misses_.push_back(RowMiss{});
  RowMiss& r = row_misses_.back();
  r.op = op;
  e_.jcc(Cc::kNe, r.entry);
  e_.bind(r.resume);
}

void BlockCompiler::emit_insn(const isa::DecodedInsn& d, std::uint32_t i) {
  if (tallies_operands(d.op) && delay_foldable(d.op)) {
    emit_retire_operands(d);
    emit_operand_toggles(d.op);
  }
  switch (d.op) {
    case Op::kNop:
      return;
    case Op::kSethi:
      if (d.rd != 0) e_.mov_mi(reg_m(d.rd), static_cast<std::uint32_t>(d.imm));
      return;

    case Op::kAdd:
    case Op::kSave:      // flat register model: plain add
    case Op::kRestore:
    case Op::kAddcc:
      e_.mov_rm(Gp::rax, reg_m(d.rs1));
      if (d.has_imm) {
        e_.add_ri(Gp::rax, static_cast<std::uint32_t>(d.imm));
      } else {
        e_.add_rm(Gp::rax, reg_m(d.rs2));
      }
      if (d.op == Op::kAddcc) emit_arith_cc();
      store_rd(d);
      return;

    case Op::kAddx:
    case Op::kAddxcc:
      e_.movzx_rm8(Gp::rcx, x::ptr(kCpu, kOffC));
      e_.bt_ri(Gp::rcx, 0);  // CF = icc_c (moves below preserve flags)
      e_.mov_rm(Gp::rax, reg_m(d.rs1));
      if (d.has_imm) {
        e_.adc_ri(Gp::rax, static_cast<std::uint32_t>(d.imm));
      } else {
        e_.mov_rm(Gp::rdx, reg_m(d.rs2));
        e_.adc_rr(Gp::rax, Gp::rdx);
      }
      if (d.op == Op::kAddxcc) emit_arith_cc();
      store_rd(d);
      return;

    case Op::kSub:
    case Op::kSubcc:
      e_.mov_rm(Gp::rax, reg_m(d.rs1));
      if (d.has_imm) {
        e_.sub_ri(Gp::rax, static_cast<std::uint32_t>(d.imm));
      } else {
        e_.mov_rm(Gp::rcx, reg_m(d.rs2));
        e_.sub_rr(Gp::rax, Gp::rcx);
      }
      if (d.op == Op::kSubcc) emit_arith_cc();
      store_rd(d);
      return;

    case Op::kSubx:
    case Op::kSubxcc:
      e_.movzx_rm8(Gp::rcx, x::ptr(kCpu, kOffC));
      e_.bt_ri(Gp::rcx, 0);  // CF = borrow-in
      e_.mov_rm(Gp::rax, reg_m(d.rs1));
      if (d.has_imm) {
        e_.sbb_ri(Gp::rax, static_cast<std::uint32_t>(d.imm));
      } else {
        e_.mov_rm(Gp::rdx, reg_m(d.rs2));
        e_.sbb_rr(Gp::rax, Gp::rdx);
      }
      if (d.op == Op::kSubxcc) emit_arith_cc();
      store_rd(d);
      return;

    case Op::kAnd: case Op::kAndcc:
    case Op::kAndn: case Op::kAndncc:
    case Op::kOr: case Op::kOrcc:
    case Op::kOrn: case Op::kOrncc:
    case Op::kXor: case Op::kXorcc:
    case Op::kXnor: case Op::kXnorcc: {
      const bool inverted = d.op == Op::kAndn || d.op == Op::kAndncc ||
                            d.op == Op::kOrn || d.op == Op::kOrncc ||
                            d.op == Op::kXnor || d.op == Op::kXnorcc;
      const bool cc = d.op == Op::kAndcc || d.op == Op::kAndncc ||
                      d.op == Op::kOrcc || d.op == Op::kOrncc ||
                      d.op == Op::kXorcc || d.op == Op::kXnorcc;
      e_.mov_rm(Gp::rax, reg_m(d.rs1));
      if (d.has_imm) {
        // Fold the complement at compile time (a & ~b, a | ~b, a ^ ~b —
        // xnor == xor with the inverted mask); flags come from the final op.
        const std::uint32_t imm = inverted
                                      ? ~static_cast<std::uint32_t>(d.imm)
                                      : static_cast<std::uint32_t>(d.imm);
        switch (d.op) {
          case Op::kAnd: case Op::kAndcc: case Op::kAndn: case Op::kAndncc:
            e_.and_ri(Gp::rax, imm);
            break;
          case Op::kOr: case Op::kOrcc: case Op::kOrn: case Op::kOrncc:
            e_.or_ri(Gp::rax, imm);
            break;
          default:
            e_.xor_ri(Gp::rax, imm);
            break;
        }
      } else {
        e_.mov_rm(Gp::rcx, reg_m(d.rs2));
        if (inverted) e_.not_r(Gp::rcx);
        switch (d.op) {
          case Op::kAnd: case Op::kAndcc: case Op::kAndn: case Op::kAndncc:
            e_.and_rr(Gp::rax, Gp::rcx);
            break;
          case Op::kOr: case Op::kOrcc: case Op::kOrn: case Op::kOrncc:
            e_.or_rr(Gp::rax, Gp::rcx);
            break;
          default:
            e_.xor_rr(Gp::rax, Gp::rcx);
            break;
        }
      }
      if (cc) emit_logic_cc();
      store_rd(d);
      return;
    }

    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
      if (d.has_imm) {
        e_.mov_rm(Gp::rax, reg_m(d.rs1));
        const auto count =
            static_cast<std::uint8_t>(static_cast<std::uint32_t>(d.imm) & 31);
        if (d.op == Op::kSll) e_.shl_ri(Gp::rax, count);
        else if (d.op == Op::kSrl) e_.shr_ri(Gp::rax, count);
        else e_.sar_ri(Gp::rax, count);
      } else {
        e_.mov_rm(Gp::rcx, reg_m(d.rs2));  // hardware masks %cl to 5 bits
        e_.mov_rm(Gp::rax, reg_m(d.rs1));
        if (d.op == Op::kSll) e_.shl_cl(Gp::rax);
        else if (d.op == Op::kSrl) e_.shr_cl(Gp::rax);
        else e_.sar_cl(Gp::rax);
      }
      store_rd(d);
      return;

    case Op::kUmul:
    case Op::kUmulcc:
    case Op::kSmul:
    case Op::kSmulcc:
      e_.mov_rm(Gp::rax, reg_m(d.rs1));
      if (d.has_imm) {
        e_.mov_ri(Gp::rcx, static_cast<std::uint32_t>(d.imm));
      } else {
        e_.mov_rm(Gp::rcx, reg_m(d.rs2));
      }
      if (d.op == Op::kUmul || d.op == Op::kUmulcc) {
        e_.mul_r(Gp::rcx);
      } else {
        e_.imul_r(Gp::rcx);
      }
      e_.mov_mr(x::ptr(kCpu, kOffY), Gp::rdx);  // y = high word
      if (d.op == Op::kUmulcc || d.op == Op::kSmulcc) {
        e_.test_rr(Gp::rax, Gp::rax);
        emit_logic_cc();
      }
      store_rd(d);
      return;

    case Op::kRdy:
      e_.mov_rm(Gp::rax, x::ptr(kCpu, kOffY));
      store_rd(d);
      return;

    case Op::kWry:
      e_.mov_rm(Gp::rax, reg_m(d.rs1));
      if (d.has_imm) {
        if (d.imm != 0) e_.xor_ri(Gp::rax, static_cast<std::uint32_t>(d.imm));
      } else {
        e_.mov_rm(Gp::rcx, reg_m(d.rs2));
        e_.xor_rr(Gp::rax, Gp::rcx);
      }
      e_.mov_mr(x::ptr(kCpu, kOffY), Gp::rax);
      return;

    case Op::kUdiv:
    case Op::kUdivcc:
    case Op::kSdiv:
    case Op::kSdivcc:
      // Divides carry y:rs1 dividends, saturation, overflow cc and a
      // div-by-zero fault — not worth templating; always helper.
      emit_helper_inline(i);
      return;

    case Op::kLd: case Op::kLdub: case Op::kLdsb:
    case Op::kLduh: case Op::kLdsh:
      emit_load(d, i);
      return;
    case Op::kLdd:
      if (d.rd & 1) {
        emit_helper_inline(i);  // faults (odd rd), interpreter-identical
      } else {
        emit_load(d, i);
      }
      return;

    case Op::kSt: case Op::kStb: case Op::kSth:
      emit_store(d, i);
      return;
    case Op::kStd:
      if (d.rd & 1) {
        emit_helper_inline(i);
      } else {
        emit_store(d, i);
      }
      return;

    default:
      // CTIs mid-block, Ticc, FPU, invalid — none can appear in a morphed
      // block body; refuse rather than miscompile if that ever changes.
      failed_ = true;
      return;
  }
}

}  // namespace

// ---- arena + thunk ---------------------------------------------------------

struct JitRuntime::Impl {
  static constexpr std::size_t kArenaBytes = std::size_t{16} << 20;
  static constexpr std::uint32_t kFull = 0xFFFFFFFFu;

  std::uint8_t* base = nullptr;
  std::size_t size = 0;
  std::size_t used = 0;
  std::uint32_t thunk_off = 0;
  std::size_t code_start = 0;  // first byte after the thunk
  bool writable = true;        // as mapped

  ~Impl() {
    if (base != nullptr) ::munmap(base, size);
  }

  bool map() {
    void* p = ::mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
    base = static_cast<std::uint8_t*>(p);
    size = kArenaBytes;
    return true;
  }

  // W^X: the arena is writable while the host compiles and patches, and
  // executable while code runs, never both. Flips are lazy: the commits and
  // patches between two native entries share one RW/RX pair.
  void make_rw() {
    if (writable) return;
    ::mprotect(base, size, PROT_READ | PROT_WRITE);
    writable = true;
  }
  void make_rx() {
    if (!writable) return;
    ::mprotect(base, size, PROT_READ | PROT_EXEC);
    writable = false;
  }

  // Appends emitted bytes (16-aligned), leaving the arena writable until the
  // next entry. Returns the arena offset, or kFull when exhausted.
  std::uint32_t commit(const asmkit::x64::Emitter& e) {
    const std::size_t at = (used + 15) & ~std::size_t{15};
    if (at + e.size() > size) return kFull;
    make_rw();
    std::memcpy(base + at, e.data(), e.size());
    used = at + e.size();
    return static_cast<std::uint32_t>(at);
  }

  // Rewrites one rel32 field; the caller makes the arena writable.
  void write_rel32(std::uint32_t off, std::int32_t value) {
    std::memcpy(base + off, &value, 4);
  }
};

JitRuntime::JitRuntime(Bus& bus, BlockCache& cache)
    : bus_(bus), cache_(cache), impl_(std::make_unique<Impl>()) {
  if (!impl_->map()) {
    impl_.reset();
    return;
  }
  rt_.ram_bias = reinterpret_cast<std::uint8_t*>(
      reinterpret_cast<std::uintptr_t>(bus_.ram_data()) - kRamBase);
  rt_.touched = bus_.touched_data();
  rt_.fault_idx = kNoFault;
  rt_.owner = this;
  btc_.assign(kInlineBtcEntries, JitBtcSlot{});
  rt_.btc = btc_.data();

  // Entry thunk: uint64_t thunk(JitRt* rdi, const void* rsi, uint64_t rdx).
  // Loads the pinned registers, calls the block entry, returns the
  // remaining budget. Six pushes keep %rsp ≡ 0 (mod 16) at block entry.
  asmkit::x64::Emitter e;
  e.push_r(Gp::rbx);
  e.push_r(Gp::rbp);
  e.push_r(Gp::r12);
  e.push_r(Gp::r13);
  e.push_r(Gp::r14);
  e.push_r(Gp::r15);
  e.mov_rr64(kRt, Gp::rdi);
  e.mov_rm64(kCpu, x::ptr(kRt, 0));
  e.mov_rm64(kRam, x::ptr(kRt, 8));
  e.mov_rm64(kLedger, x::ptr(kRt, kRtLedger));
  e.mov_rr64(kBudget, Gp::rdx);
  e.call_r(Gp::rsi);
  e.mov_rr64(Gp::rax, kBudget);
  e.pop_r(Gp::r15);
  e.pop_r(Gp::r14);
  e.pop_r(Gp::r13);
  e.pop_r(Gp::r12);
  e.pop_r(Gp::rbp);
  e.pop_r(Gp::rbx);
  e.ret();
  impl_->thunk_off = impl_->commit(e);
  impl_->code_start = impl_->used;
}

JitRuntime::~JitRuntime() = default;

bool JitRuntime::ok() const { return impl_ != nullptr; }

void JitRuntime::configure(CpuState* cpu, std::uint64_t* counts,
                           CostLedger* ledger) {
  // The counts adds and the ledger's configuration are baked per block; the
  // pointers themselves are loaded from JitRt at runtime, so only a counts
  // null <-> non-null change or a different ledger invalidates compiled
  // code.
  if (!metas_.empty() &&
      ((counts == nullptr) != (rt_.counts == nullptr) || ledger != rt_.ledger)) {
    reset_code();
  }
  rt_.cpu = cpu;
  rt_.counts = counts;
  rt_.ledger = ledger;
}

void JitRuntime::btc_insert(std::uint32_t pc, Block& to) {
  if (to.jit_state != Block::JitState::kCompiled || to.jit_meta->dead) return;
  JitBtcSlot& s = btc_[(pc >> 2) & (kInlineBtcEntries - 1)];
  s.tag = pc;
  s.native =
      reinterpret_cast<std::uint64_t>(impl_->base) + to.jit_meta->entry_off;
  ++stats_.btc_inserts;
}

void JitRuntime::reset_code() {
  for (const auto& m : metas_) {
    if (m->dead) continue;  // its Block may already be freed
    m->block->jit_state = Block::JitState::kNone;
    m->block->jit_meta = nullptr;
    m->block->jit_folds_delay = false;
  }
  metas_.clear();
  impl_->used = impl_->code_start;
  rt_.cur_meta = nullptr;
  rt_.fault_idx = kNoFault;
  for (JitBtcSlot& s : btc_) s = JitBtcSlot{};  // arena offsets now invalid
}

Block::JitState JitRuntime::ensure_compiled(Block& b) {
  if (b.jit_state != Block::JitState::kNone) return b.jit_state;
  auto meta = std::make_unique<JitBlockMeta>();
  meta->block = &b;
  meta->start = b.start;
  meta->len = b.len;
  BlockCompiler comp(cache_, b, meta.get(), rt_.counts != nullptr, rt_.ledger);
  std::uint32_t off = Impl::kFull;
  if (comp.compile()) off = impl_->commit(comp.emitter());
  if (off == Impl::kFull) {  // untemplatable block or arena exhausted
    ++stats_.blocks_rejected;
    b.jit_state = Block::JitState::kRejected;
    return b.jit_state;
  }
  meta->entry_off = off;
  meta->exits = comp.take_exits();
  for (JitExit& exit : meta->exits) {
    exit.patch_off += off;
    exit.stub_off += off;
  }
  b.jit_folds_delay = comp.folds_delay();
  b.jit_meta = meta.get();
  b.jit_state = Block::JitState::kCompiled;
  ++stats_.blocks_compiled;
  stats_.code_bytes += comp.emitter().size();
  metas_.push_back(std::move(meta));
  return b.jit_state;
}

std::uint64_t JitRuntime::enter(Block& b, std::uint64_t budget) {
  ++stats_.entries;
  rt_.fault_idx = kNoFault;
  pending_ = nullptr;
  impl_->make_rx();
  using ThunkFn = std::uint64_t (*)(JitRt*, const void*, std::uint64_t);
  const auto fn = reinterpret_cast<ThunkFn>(impl_->base + impl_->thunk_off);
  return fn(&rt_, impl_->base + b.jit_meta->entry_off, budget);
}

std::pair<const JitBlockMeta*, std::uint32_t> JitRuntime::take_fault() {
  const auto* meta = static_cast<const JitBlockMeta*>(rt_.cur_meta);
  const std::uint32_t idx = rt_.fault_idx;
  rt_.fault_idx = kNoFault;
  return {meta, idx};
}

Block* JitRuntime::last_block() const {
  const auto* meta = static_cast<const JitBlockMeta*>(rt_.cur_meta);
  if (meta == nullptr || meta->dead) return nullptr;
  return meta->block;
}

void JitRuntime::patch_transition(JitBlockMeta& from, std::uint32_t pc,
                                  Block& to) {
  if (from.dead || to.jit_state != Block::JitState::kCompiled) return;
  JitBlockMeta* tm = to.jit_meta;
  for (std::uint32_t i = 0; i < from.exits.size(); ++i) {
    JitExit& exit = from.exits[i];
    if (exit.exit_pc != pc || exit.patched_to != nullptr) continue;
    impl_->make_rw();
    impl_->write_rel32(exit.patch_off,
                       static_cast<std::int32_t>(tm->entry_off) -
                           static_cast<std::int32_t>(exit.patch_off + 4));
    exit.patched_to = &to;
    tm->incoming.emplace_back(&from, i);
    ++stats_.patches;
    return;
  }
}

void JitRuntime::on_block_death(Block& b) {
  JitBlockMeta* m = b.jit_meta;
  if (m == nullptr || m->dead) return;
  m->dead = true;
  // May run from inside native code (a self-modifying store through the
  // helper), so the protection found on entry is restored on exit.
  const bool was_writable = impl_->writable;
  impl_->make_rw();
  // Withdraw every patched jump INTO the dying code: a live predecessor must
  // fall back to its exit stub (and thence the host) instead of entering a
  // stale trace.
  for (const auto& [src, idx] : m->incoming) {
    JitExit& exit = src->exits[idx];
    impl_->write_rel32(exit.patch_off,
                       static_cast<std::int32_t>(exit.stub_off) -
                           static_cast<std::int32_t>(exit.patch_off + 4));
    exit.patched_to = nullptr;
    ++stats_.unpatches;
  }
  m->incoming.clear();
  // And every patched jump OUT of it: the dying block may still be in
  // flight (stale-trace semantics), and its successors may have just died
  // in the same invalidation — it must return to the host at its exit, like
  // the interpreter falling back to lookup() on a severed chain.
  for (std::uint32_t i = 0; i < m->exits.size(); ++i) {
    JitExit& exit = m->exits[i];
    if (exit.patched_to == nullptr) continue;
    impl_->write_rel32(exit.patch_off,
                       static_cast<std::int32_t>(exit.stub_off) -
                           static_cast<std::int32_t>(exit.patch_off + 4));
    JitBlockMeta* tm = exit.patched_to->jit_meta;
    for (std::size_t j = 0; j < tm->incoming.size(); ++j) {
      if (tm->incoming[j].first == m && tm->incoming[j].second == i) {
        tm->incoming.erase(tm->incoming.begin() +
                           static_cast<std::ptrdiff_t>(j));
        break;
      }
    }
    exit.patched_to = nullptr;
    ++stats_.unpatches;
  }
  if (!was_writable) impl_->make_rx();
  // Withdraw inline-BTC entries targeting the dying code (the table lives
  // in plain heap memory; no protection bracket needed).
  const std::uint64_t dead_entry =
      reinterpret_cast<std::uint64_t>(impl_->base) + m->entry_off;
  for (JitBtcSlot& s : btc_) {
    if (s.native == dead_entry) s = JitBtcSlot{};
  }
}

#endif  // NFP_JIT_ENABLED

}  // namespace nfp::sim
