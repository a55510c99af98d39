// x86-64 backend of the template JIT (see jit.h for the architecture and
// docs/jit.md for the template shapes). Split in three parts:
//
//  1. the arena (one memfd mapped read+execute, written with pwrite) and
//     the entry thunk (JitRuntime::Impl),
//  2. the generic slow-path helper nfp_jit_exec_insn — every record the
//     templates do not model natively re-executes through the block's own
//     morph handler, so the slow path is interpreter-identical by
//     construction (including faults, MMIO instret sync, and store
//     invalidation),
//  3. the per-block code generator (BlockCompiler).
//
// Register pinning inside emitted code. Callee-saved, so they survive the
// helper call untouched:
//   %rbx  &CpuState            %r13  remaining instruction budget
//   %r12  ram_data()-kRamBase  %r14  &JitRt
//   %r15  &CostLedger (only addressed when one is bound)
// With a ledger bound, its toggle history lives in registers for the whole
// native run (the thunk loads it and writes it back):
//   %rbp  prev_b:prev_a (callee-saved; so a frame-pointer walk from
//         inside the helper ends at emitted code). Inside a block a half
//         the compiler knows as a constant may be stale (LazyToggles);
//         exits, FPU tallies, operand-tallying helper calls and helper
//         fault exits rebuild the pair first.
//   %r9d  prev_addr            %r10d  open_row (caller-saved)
// and %esi/%edi/%r11d hold per-block toggle sums of up to three ops, zeroed
// in the block prologue and added into the ledger at every exit. Around
// every call of nfp_jit_exec_insn the sums go into the ledger and the
// history out of its registers and back (see emit_helper_call).
// %eax/%ecx/%edx are scratch, and so are %xmm0, %xmm1 and %xmm7 (the FPU
// templates; no SSE register lives across a record). Blocks run with
// %rsp ≡ 0 (mod 16), so the helper is entered at the SysV-required
// alignment.
#include "sim/jit.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <type_traits>

#include "asmkit/x64.h"
#include "isa/insn.h"
#include "sim/ledger.h"
#include "sim/memmap.h"

#if NFP_JIT_ENABLED
#include <sys/mman.h>
#include <unistd.h>
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
void JitRuntime::fold_counts() noexcept {}
void JitRuntime::fold_slots(const JitBlockMeta&) noexcept {}
void JitRuntime::fold_dying() noexcept {}

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
static_assert(offsetof(JitRt, guard_miss) == 44);
static_assert(offsetof(JitRt, ledger) == 56);
static_assert(offsetof(JitRt, btc) == 64);
static_assert(offsetof(JitRt, btc_hits) == 72);
static_assert(offsetof(JitRt, visits) == 80);
static_assert(sizeof(JitBtcSlot) == 16);

// Ledger tallies are addressed as [%r15 + field + 8*op]; the operand
// history prev_b:prev_a is one little-endian qword in %rbp.
static_assert(std::is_standard_layout_v<CostLedger>);
static_assert(offsetof(CostLedger, prev_a) == 0);
static_assert(offsetof(CostLedger, prev_b) == 4);
static_assert(offsetof(CostLedger, prev_addr) == 8);
static_assert(offsetof(CostLedger, open_row) == 12);

namespace {

#ifndef MFD_EXEC
#define MFD_EXEC 0x0010U  // Linux 6.3+; older libc headers lack it
#endif

// The code arena, W^X by construction: a memfd mapped once, read+execute,
// and written only through pwrite on the file, so no writable mapping of
// emitted code ever exists.
struct ExecArena {
  static constexpr std::uint32_t kFull = 0xFFFFFFFFu;

  int fd = -1;
  const std::uint8_t* base = nullptr;
  std::size_t size = 0;
  std::size_t used = 0;
  std::uint32_t thunk_off = 0;
  std::size_t code_start = 0;  // first byte after the thunk

  ~ExecArena() {
    if (base != nullptr) ::munmap(const_cast<std::uint8_t*>(base), size);
    if (fd >= 0) ::close(fd);
  }

  bool map(std::size_t bytes) {
    fd = ::memfd_create("nfp-jit", MFD_CLOEXEC | MFD_EXEC);
    if (fd < 0 && errno == EINVAL) fd = ::memfd_create("nfp-jit", MFD_CLOEXEC);
    if (fd < 0 || ::ftruncate(fd, static_cast<off_t>(bytes)) != 0) return false;
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_EXEC, MAP_SHARED, fd, 0);
    if (p == MAP_FAILED) return false;
    base = static_cast<const std::uint8_t*>(p);
    size = bytes;
    return true;
  }

  // False on a failed or short write.
  bool write(std::size_t off, const void* src, std::size_t n) const {
    return ::pwrite(fd, src, n, static_cast<off_t>(off)) ==
           static_cast<ssize_t>(n);
  }

  // Whether `n` more bytes fit behind the used part (16-aligned).
  bool fits(std::size_t n) const {
    return ((used + 15) & ~std::size_t{15}) + n <= size;
  }

  // Appends emitted bytes (16-aligned). Returns the arena offset, or kFull
  // when the arena is exhausted or the write fails.
  std::uint32_t commit(const asmkit::x64::Emitter& e) {
    const std::size_t at = (used + 15) & ~std::size_t{15};
    if (!fits(e.size()) || !write(at, e.data(), e.size())) return kFull;
    used = at + e.size();
    return static_cast<std::uint32_t>(at);
  }

  // Points the jmp whose rel32 field sits at `patch_off` at `target_off`.
  bool write_rel32(std::uint32_t patch_off, std::uint32_t target_off) const {
    const std::int32_t rel = static_cast<std::int32_t>(target_off) -
                             static_cast<std::int32_t>(patch_off + 4);
    return write(patch_off, &rel, 4);
  }
};

// The host passed the probe yet refused an arena (descriptors or address
// space exhausted): fail the run instead of hiding it behind kBlock.
std::system_error arena_error() {
  return {errno, std::generic_category(), "jit: cannot build the code arena"};
}

// One run of the arena's exact sequence: memfd, ftruncate, exec mapping,
// one pwrite. Hosts that refuse any step (vm.memfd_noexec=2, hardened
// kernels) get no jit.
bool probe_exec_pages() {
  static const bool ok = [] {
    ExecArena arena;
    const std::uint8_t ret = 0xC3;
    return arena.map(4096) && arena.write(0, &ret, 1);
  }();
  return ok;
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
using x::Xmm;
using isa::Op;

constexpr Gp kCpu = Gp::rbx;
constexpr Gp kRam = Gp::r12;
constexpr Gp kBudget = Gp::r13;
constexpr Gp kRt = Gp::r14;
constexpr Gp kLedger = Gp::r15;
constexpr Gp kHist = Gp::rbp;
constexpr Gp kPrevAddr = Gp::r9;
constexpr Gp kOpenRow = Gp::r10;
constexpr Gp kAccRegs[] = {Gp::rsi, Gp::rdi, Gp::r11};

constexpr std::int32_t kOffF = 128;
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
constexpr std::int32_t kRtCurMeta = 32;
constexpr std::int32_t kRtGuardMiss = 44;
constexpr std::int32_t kRtLedger = 56;
constexpr std::int32_t kRtBtc = 64;
constexpr std::int32_t kRtBtcHits = 72;
constexpr std::int32_t kRtVisits = 80;

constexpr std::int32_t kLgHist = offsetof(CostLedger, prev_a);
constexpr std::int32_t kLgPrevAddr = offsetof(CostLedger, prev_addr);
constexpr std::int32_t kLgOpenRow = offsetof(CostLedger, open_row);

// [%r15 + tally + 8*op]: one op's slot of a CostLedger tally array.
x::Mem tally_m(std::size_t tally, isa::Op op) {
  return x::ptr(kLedger, static_cast<std::int32_t>(
                             tally + 8 * static_cast<std::size_t>(op)));
}

// The ledger's toggle history between memory and its pinned registers:
// the address history and open row, plus (when `operands`) the operand
// pair. Host code writes prev_a and prev_b as two dwords, so the pair is
// read as two dwords too (one qword load of them stalls on store
// forwarding); clobbers %rdx.
void load_history(x::Emitter& e, bool operands) {
  if (operands) {
    e.mov_rm(kHist, x::ptr(kLedger, kLgHist));
    e.mov_rm(Gp::rdx, x::ptr(kLedger, kLgHist + 4));
    e.shl_ri64(Gp::rdx, 32);
    e.or_rr64(kHist, Gp::rdx);
  }
  e.mov_rm(kPrevAddr, x::ptr(kLedger, kLgPrevAddr));
  e.mov_rm(kOpenRow, x::ptr(kLedger, kLgOpenRow));
}
void store_history(x::Emitter& e, bool operands) {
  if (operands) e.mov_mr64(x::ptr(kLedger, kLgHist), kHist);
  e.mov_mr(x::ptr(kLedger, kLgPrevAddr), kPrevAddr);
  e.mov_mr(x::ptr(kLedger, kLgOpenRow), kOpenRow);
}

x::Mem reg_m(std::uint32_t r) {
  return x::ptr(kCpu, 4 * static_cast<std::int32_t>(r));
}
x::Mem freg_m(std::uint32_t r) {
  return x::ptr(kCpu, kOffF + 4 * static_cast<std::int32_t>(r));
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

// What the compiler knows about a guest register at one point of a block:
// nothing, a constant, or its value at block entry plus a constant.
struct RegFact {
  enum class Kind : std::uint8_t { kUnknown, kConst, kEntry };
  Kind kind = Kind::kUnknown;
  std::uint8_t base = 0;    // kEntry: the register read at block entry
  std::uint32_t value = 0;  // kConst: the value; kEntry: the added constant

  static RegFact constant(std::uint32_t v) { return {Kind::kConst, 0, v}; }
  static RegFact entry(std::uint8_t r, std::uint32_t off) {
    return {Kind::kEntry, r, off};
  }
  bool is_const() const { return kind == Kind::kConst; }
};
using RegFacts = std::array<RegFact, 32>;

RegFacts entry_facts() {
  RegFacts f;
  f[0] = RegFact::constant(0);
  for (std::uint8_t r = 1; r < 32; ++r) f[r] = RegFact::entry(r, 0);
  return f;
}

RegFact op2_fact(const RegFacts& f, const isa::DecodedInsn& d) {
  return d.has_imm ? RegFact::constant(static_cast<std::uint32_t>(d.imm))
                   : f[d.rs2];
}

// a + b or a - b: constants fold, and an entry value plus a constant stays
// one.
RegFact add_fact(const RegFact& a, const RegFact& b, bool sub) {
  if (b.is_const() && a.kind != RegFact::Kind::kUnknown) {
    return {a.kind, a.base, sub ? a.value - b.value : a.value + b.value};
  }
  if (!sub && a.is_const() && b.kind == RegFact::Kind::kEntry) {
    return RegFact::entry(b.base, b.value + a.value);
  }
  return {};
}

// The logic ops and shifts on constants; `or`/`xor` with a zero operand
// (the `mov` idiom) pass the other operand's fact through.
RegFact logic_fact(Op op, const RegFact& a, const RegFact& b) {
  const bool zero_pass = op == Op::kOr || op == Op::kOrcc || op == Op::kXor ||
                         op == Op::kXorcc;
  if (zero_pass && a.is_const() && a.value == 0) return b;
  if (zero_pass && b.is_const() && b.value == 0) return a;
  if (!a.is_const() || !b.is_const()) return {};
  const std::uint32_t x = a.value;
  const std::uint32_t y = b.value;
  switch (op) {
    case Op::kAnd: case Op::kAndcc: return RegFact::constant(x & y);
    case Op::kAndn: case Op::kAndncc: return RegFact::constant(x & ~y);
    case Op::kOr: case Op::kOrcc: return RegFact::constant(x | y);
    case Op::kOrn: case Op::kOrncc: return RegFact::constant(x | ~y);
    case Op::kXor: case Op::kXorcc: return RegFact::constant(x ^ y);
    case Op::kXnor: case Op::kXnorcc: return RegFact::constant(x ^ ~y);
    case Op::kSll: return RegFact::constant(x << (y & 31));
    case Op::kSrl: return RegFact::constant(x >> (y & 31));
    case Op::kSra:
      return RegFact::constant(static_cast<std::uint32_t>(
          static_cast<std::int32_t>(x) >> (y & 31)));
    default: return {};
  }
}

// Advances the register facts over one record (the CTI's own link-register
// write is the caller's).
void step_facts(RegFacts& f, const isa::DecodedInsn& d) {
  RegFact out;
  switch (d.op) {
    case Op::kSethi:
      out = RegFact::constant(static_cast<std::uint32_t>(d.imm));
      break;
    case Op::kAdd: case Op::kAddcc: case Op::kSave: case Op::kRestore:
      out = add_fact(f[d.rs1], op2_fact(f, d), false);
      break;
    case Op::kSub: case Op::kSubcc:
      out = add_fact(f[d.rs1], op2_fact(f, d), true);
      break;
    case Op::kAnd: case Op::kAndcc: case Op::kAndn: case Op::kAndncc:
    case Op::kOr: case Op::kOrcc: case Op::kOrn: case Op::kOrncc:
    case Op::kXor: case Op::kXorcc: case Op::kXnor: case Op::kXnorcc:
    case Op::kSll: case Op::kSrl: case Op::kSra:
      out = logic_fact(d.op, f[d.rs1], op2_fact(f, d));
      break;
    case Op::kLdd:
      if (d.rd < 31) f[d.rd + 1u] = {};
      break;
    case Op::kNop: case Op::kWry: case Op::kLdf: case Op::kLddf:
    case Op::kBicc: case Op::kFbfcc: case Op::kCall: case Op::kJmpl:
      return;
    default:
      if (isa::is_store(d.op) || isa::is_fpu(d.op)) return;
      break;  // every other record writes rd with a runtime value
  }
  if (d.rd != 0) f[d.rd] = out;
}

// Bytes a templated load or store moves (also its alignment).
std::uint32_t access_width(Op op) {
  switch (op) {
    case Op::kLdub: case Op::kLdsb: case Op::kStb: return 1;
    case Op::kLduh: case Op::kLdsh: case Op::kSth: return 2;
    case Op::kLdd: case Op::kLddf: case Op::kStd: case Op::kStdf: return 8;
    default: return 4;
  }
}

// One half of an operand-toggle record: a compile-time constant, or a
// 32-bit CpuState field (a shift count masked to 5 bits).
struct OperandHalf {
  bool is_const = true;
  std::uint32_t value = 0;
  std::int32_t off = 0;
  bool mask31 = false;
};

// One half of the ledger's operand history prev_b:prev_a: known at compile
// time (%rbp's half is stale), or held in its half of %rbp.
struct HistHalf {
  bool known = false;
  std::uint32_t value = 0;
};

// The compile-time share of a block's toggle accounting at one point:
// which history halves are constants, and the constant popcounts not yet
// added into the ledger (per op).
struct LazyToggles {
  std::array<HistHalf, 2> hist{};  // [0] prev_a, [1] prev_b
  std::vector<std::pair<Op, std::uint32_t>> pending;

  bool canonical() const { return !hist[0].known && !hist[1].known; }
  bool clean() const { return canonical() && pending.empty(); }
  void add(Op op, std::uint32_t k) {
    if (k == 0) return;
    for (auto& [o, sum] : pending) {
      if (o == op) {
        sum += k;
        return;
      }
    }
    pending.emplace_back(op, k);
  }
};

// Per-block code generator. Compiles from the predecoded DecodedInsn image
// (MorphInsn erases has_imm); valid because a live block proves its words
// are unchanged since morph time.
//
// Three block-local facts shape the code. A forward pass over the body
// (analyze) tracks each guest register as unknown, a constant, or a
// block-entry register plus a constant. Loads and stores whose address is
// an entry register plus a constant drop their alignment, RAM-range and
// text-store guards for one range-and-alignment check per base register in
// the prologue. Operand-toggle records fold constant halves at compile time
// (LazyToggles). Every exit path bumps one visit counter instead of one
// retire counter per op.
class BlockCompiler {
 public:
  BlockCompiler(BlockCache& cache, const Block& b, const JitBlockMeta* meta,
                bool counted, const CostLedger* ledger,
                std::uint32_t slot_base)
      : b_(b),
        meta_(meta),
        counted_(counted),
        ledger_(ledger),
        dcache_(cache.dcache()),
        word0_((b.start - cache.code_base()) / 4),
        code_base_(cache.code_base()),
        code_limit_(cache.code_limit()),
        slot_base_(slot_base) {}

  bool compile();
  const x::Emitter& emitter() const { return e_; }
  std::vector<JitExit> take_exits() { return std::move(exits_); }
  // The op a visit slot's exit path folds from the delay slot, per slot
  // (JitRuntime::kNoExtra: none).
  const std::vector<std::uint8_t>& slot_extras() const { return slot_extras_; }
  bool folds_delay() const { return folds_delay_; }

 private:
  // The compile-time state a control-flow split must restore for its
  // second path.
  struct State {
    RegFacts facts;
    LazyToggles lazy;
  };
  State save() const { return {facts_, lazy_}; }
  void restore(const State& s) {
    facts_ = s.facts;
    lazy_ = s.lazy;
  }

  struct ColdCall {
    x::Label slow;
    x::Label resume;
    std::uint32_t idx = 0;
    bool returns = true;  // false: the helper is known to fault (jmpl align)
    LazyToggles lazy;     // the toggle state at the call site
  };
  // Out-of-line SDRAM row-miss tally of one memory op (%ecx = new row,
  // %eax = the access's toggle popcount).
  struct RowMiss {
    x::Label entry;
    x::Label resume;
    Op op = Op::kInvalid;
  };
  // A helper's fault exit from a site whose toggle state is not clean: it
  // adds the site's pending constants into the ledger and rebuilds %rbp
  // before the thunk stores it as the history.
  struct FaultStub {
    x::Label entry;
    LazyToggles lazy;
  };
  // One prologue check covering every hoisted access through `reg`: its
  // block-entry value must lie in [lo, hi] and be ≡ -align_off modulo
  // `align`.
  struct BaseCheck {
    std::uint8_t reg = 0;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::uint32_t align = 1;
    std::uint32_t align_off = 0;
    bool ok = true;
  };

  ColdCall& new_cold(std::uint32_t idx, bool returns = true) {
    colds_.push_back(ColdCall{});
    colds_.back().idx = idx;
    colds_.back().returns = returns;
    colds_.back().lazy = lazy_;
    return colds_.back();
  }

  void analyze(std::uint32_t body);
  void emit_base_checks(x::Label& miss);
  void emit_insn(const isa::DecodedInsn& d, std::uint32_t i);
  void emit_record(const isa::DecodedInsn& d, std::uint32_t i);
  void emit_load(const isa::DecodedInsn& d, std::uint32_t i);
  void emit_store(const isa::DecodedInsn& d, std::uint32_t i);
  void emit_fpu(const isa::DecodedInsn& d, std::uint32_t i);
  void emit_load_d(Xmm dst, std::uint32_t reg);
  void emit_store_d(std::uint32_t reg, Xmm src);
  void emit_fp_operands(const isa::DecodedInsn& d);
  void emit_cti(const isa::DecodedInsn& d);
  void emit_jmpl(const isa::DecodedInsn& d, std::uint32_t cti_pc);
  void emit_icc_test(std::uint8_t cond, x::Label& taken);
  void emit_fcc_test(std::uint8_t cond, x::Label& taken);
  void emit_delayed_exit(std::uint32_t cti_pc, std::uint32_t target);
  void emit_static_exit(std::uint32_t exit_pc, std::uint32_t retired,
                        int extra_op, int cti_taken = -1);
  void emit_exit_accounting(std::uint32_t retired, int extra_op);
  void emit_helper_call(std::uint32_t i);
  void emit_ea(const isa::DecodedInsn& d);

  // ---- cost-ledger tallies (sim/ledger.h) --------------------------------
  // True when op's retire operands feed the ledger's operand-toggle tally.
  bool tallies_operands(Op op) const {
    if (ledger_ == nullptr || !ledger_->variation) return false;
    const ResidualKind k = ledger_->kind[static_cast<std::size_t>(op)];
    return k == ResidualKind::kNone || k == ResidualKind::kFpVariable;
  }
  bool tallies_toggles_inline(const isa::DecodedInsn& d) const;
  void pick_accumulators();
  static std::array<OperandHalf, 2> operand_halves(
      const RegFacts& f, const isa::DecodedInsn& d);
  void emit_alu_toggles(const isa::DecodedInsn& d);
  void emit_packed_toggles(const isa::DecodedInsn& d,
                           const std::array<OperandHalf, 2>& h);
  void emit_operand_toggles(Op op);
  void emit_canonical_history();
  void emit_toggle_add(Op op);
  void emit_flush_accumulators();
  void emit_flush_pending(bool to_memory);
  void emit_clear_accumulators();
  void emit_memory_tally(Op op);
  void emit_untaken_tally() {
    if (ledger_ == nullptr) return;
    e_.add_mi64(tally_m(offsetof(CostLedger, untaken),
                        dcache_[word0_ + b_.len - 1].op),
                1);
  }

  // r[rs1] into `dst` (32-bit, zero-extending): an immediate when the facts
  // prove it constant, %ebp when the record's toggle tally just left it
  // there as prev_a, else a load.
  void load_rs1(const isa::DecodedInsn& d, Gp dst) {
    if (facts_[d.rs1].is_const()) {
      e_.mov_ri(dst, facts_[d.rs1].value);
    } else if (rs1_in_hist_) {
      e_.mov_rr(dst, kHist);
    } else {
      e_.mov_rm(dst, reg_m(d.rs1));
    }
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
  std::uint32_t slot_base_;

  // The terminating CTI's delay slot, and whether it folds into the exit.
  const isa::DecodedInsn* delay_ = nullptr;
  bool fold_ = false;
  // Toggle sums kept in kAccRegs[k] for accs_[k] until an exit or a helper
  // call adds them into toggles[op].
  std::vector<Op> accs_;
  // Register facts before the record being emitted, and the toggle state.
  RegFacts facts_ = entry_facts();
  LazyToggles lazy_;
  // %ebp holds r[rs1] of the record being emitted (its toggle tally made
  // it prev_a).
  bool rs1_in_hist_ = false;
  // Per body record: its address guards are hoisted into the prologue.
  std::vector<bool> hoisted_;
  std::vector<BaseCheck> checks_;
  // Per body record: false for an ALU record whose operands are both
  // constants (its toggle tally folds, so pick_accumulators skips it).
  std::vector<bool> runtime_toggles_;

  x::Emitter e_;
  x::Label bail_;
  x::Label fault_;
  std::vector<ColdCall> colds_;
  std::vector<RowMiss> row_misses_;
  std::vector<FaultStub> fault_stubs_;
  std::vector<JitExit> exits_;
  std::vector<std::uint8_t> slot_extras_;
  bool folds_delay_ = false;
  bool failed_ = false;
};

bool BlockCompiler::compile() {
  // Toggle tallies need the host's popcnt.
  if (ledger_ != nullptr && ledger_->variation && !host_has_popcnt()) {
    return false;
  }
  // A cached board's loads run through exec_block instead (the per-block
  // kBlock fallback): the data-cache lookup is not templated.
  if (ledger_ != nullptr && ledger_->has_cache()) {
    for (const BlockOpCount& p : b_.profile) {
      if (isa::is_load(static_cast<Op>(p.op))) return false;
    }
  }

  const std::uint32_t len = b_.len;
  const std::uint32_t body = b_.ends_with_cti ? len - 1 : len;
  if (b_.ends_with_cti) {
    const std::uint32_t didx = word0_ + len;
    delay_ = didx < dcache_.size() ? &dcache_[didx] : nullptr;
    // A step-only delay op must fault through the host's single-step.
    fold_ = delay_ != nullptr && delay_foldable(delay_->op) &&
            (ledger_ == nullptr ||
             !ledger_->step_only[static_cast<std::size_t>(delay_->op)]);
  }
  analyze(body);
  pick_accumulators();

  // Prologue: budget check (bail leaves the budget untouched and
  // materializes pc/npc at the block entry — a patched chain arrives here
  // without going through any exit stub), then announce this block as the
  // running one, check the hoisted base registers (a miss bails the same
  // way and raises JitRt::guard_miss, so the host runs this block once
  // through exec_block), claim its retirement from the budget and clear its
  // toggle accumulators.
  x::Label guard_miss;
  e_.cmp_ri64(kBudget, static_cast<std::int32_t>(len));
  e_.jcc(Cc::kB, bail_);
  e_.mov_ri64(Gp::rax, reinterpret_cast<std::uint64_t>(meta_));
  e_.mov_mr64(x::ptr(kRt, kRtCurMeta), Gp::rax);
  emit_base_checks(guard_miss);
  e_.sub_ri64(kBudget, static_cast<std::int32_t>(len));
  emit_clear_accumulators();

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

  if (std::any_of(checks_.begin(), checks_.end(),
                  [](const BaseCheck& c) { return c.ok; })) {
    e_.bind(guard_miss);
    e_.mov_mi(x::ptr(kRt, kRtGuardMiss), 1);
  }
  e_.bind(bail_);
  e_.mov_mi(x::ptr(kCpu, kOffPc), b_.start);
  e_.mov_mi(x::ptr(kCpu, kOffNpc), b_.start + 4);
  e_.ret();

  // Cold section: row-miss tallies, then one helper call per slow-path
  // site (emitted with that site's toggle state). On success the native
  // trace RESUMES — matching the interpreter's stale-trace-in-flight
  // semantics even when the record just invalidated this very block.
  for (RowMiss& r : row_misses_) {
    e_.bind(r.entry);
    e_.mov_rr(kOpenRow, Gp::rcx);
    e_.add_mi64(tally_m(offsetof(CostLedger, row_misses), r.op), 1);
    if (ledger_->variation) {
      e_.add_mr64(tally_m(offsetof(CostLedger, row_miss_toggles), r.op),
                  Gp::rax);
    }
    e_.jmp(r.resume);
  }
  for (ColdCall& c : colds_) {
    e_.bind(c.slow);
    lazy_ = c.lazy;
    emit_helper_call(c.idx);
    if (c.returns) {
      e_.jmp(c.resume);
    } else {
      e_.int3();  // helper is known to fault; jnz above always leaves
    }
  }
  for (FaultStub& f : fault_stubs_) {
    e_.bind(f.entry);
    lazy_ = f.lazy;
    emit_flush_pending(/*to_memory=*/true);
    emit_canonical_history();
    e_.jmp(fault_);
  }
  e_.bind(fault_);
  e_.ret();
  return true;
}

// The forward pass behind the hoisted address checks and the accumulator
// choice. A templated load or store whose address is a block-entry
// register plus a constant joins its base register's check: the entry
// value B must keep every such access in range (loads in [kRamBase,
// kRamEnd), stores in [text end, kRamEnd) and only when the text starts at
// kRamBase, so no store can reach it) and aligned. A constant address is
// checked here, once. Accesses whose base cannot pass (contradictory
// alignments, an empty range) keep their per-access guards.
void BlockCompiler::analyze(std::uint32_t body) {
  struct Access {
    std::uint32_t idx;
    std::uint8_t base;
    std::uint32_t off;
    std::uint32_t width;
    std::int64_t lo;  // B >= lo and B <= hi keep the access in range
    std::int64_t hi;
  };
  std::vector<Access> accesses;
  hoisted_.assign(body, false);
  runtime_toggles_.assign(body, true);
  const bool stores_hoistable = code_base_ == kRamBase;
  RegFacts f = entry_facts();
  for (std::uint32_t i = 0; i < body; ++i) {
    const isa::DecodedInsn& d = dcache_[word0_ + i];
    if (delay_foldable(d.op)) {
      const auto h = operand_halves(f, d);
      runtime_toggles_[i] = !h[0].is_const || !h[1].is_const;
    }
    const std::uint32_t w = access_width(d.op);
    const bool load = isa::is_load(d.op);
    const bool templated = (load || isa::is_store(d.op)) &&
                           !(w == 8 && (d.rd & 1) != 0);
    if (templated && (load || stores_hoistable)) {
      const RegFact ea = add_fact(f[d.rs1], op2_fact(f, d), false);
      const std::int64_t floor =
          load ? std::int64_t{kRamBase}
               : std::int64_t{code_base_} + std::int64_t{code_limit_};
      if (ea.is_const()) {
        hoisted_[i] = ea.value % w == 0 && ea.value >= floor &&
                      std::int64_t{ea.value} + w <= std::int64_t{kRamEnd};
      } else if (ea.kind == RegFact::Kind::kEntry) {
        const std::int64_t off = static_cast<std::int32_t>(ea.value);
        accesses.push_back(
            {i, ea.base, ea.value, w, floor - off, kRamEnd - w - off});
      }
    }
    step_facts(f, d);
  }
  for (const Access& a : accesses) {
    auto it = std::find_if(checks_.begin(), checks_.end(),
                           [&](const BaseCheck& c) { return c.reg == a.base; });
    if (it == checks_.end()) {
      checks_.push_back(BaseCheck{});
      it = checks_.end() - 1;
      it->reg = a.base;
      it->lo = a.lo;
      it->hi = a.hi;
    }
    it->lo = std::max(it->lo, a.lo);
    it->hi = std::min(it->hi, a.hi);
    if (a.width > it->align) {
      it->align = a.width;
      it->align_off = a.off;
    }
  }
  for (BaseCheck& c : checks_) {
    for (const Access& a : accesses) {
      // B + off_a ≡ 0 (mod width_a) must follow from B + align_off ≡ 0
      // (mod align); widths are powers of two dividing align.
      if (a.base == c.reg && ((a.off - c.align_off) & (a.width - 1)) != 0) {
        c.ok = false;
      }
    }
    c.ok = c.ok && c.lo <= c.hi && -c.lo >= INT32_MIN && -c.lo <= INT32_MAX &&
           c.hi - c.lo <= INT32_MAX;
  }
  for (const Access& a : accesses) {
    for (const BaseCheck& c : checks_) {
      if (c.reg == a.base) hoisted_[a.idx] = c.ok;
    }
  }
}

// One check per hoisted base register, against its block-entry value:
// B - lo <= hi - lo unsigned over 64 bits (so B below lo wraps high), then
// the alignment of B + align_off. Clobbers %rax, %rcx and %rdx.
void BlockCompiler::emit_base_checks(x::Label& miss) {
  for (const BaseCheck& c : checks_) {
    if (!c.ok) continue;
    e_.mov_rm(Gp::rcx, reg_m(c.reg));  // zero-extends into %rcx
    e_.lea_r64(Gp::rdx, x::ptr(Gp::rcx, static_cast<std::int32_t>(-c.lo)));
    e_.cmp_ri64(Gp::rdx, static_cast<std::int32_t>(c.hi - c.lo));
    e_.jcc(Cc::kA, miss);
    if (c.align == 1) continue;
    if ((c.align_off & (c.align - 1)) == 0) {
      e_.test_ri(Gp::rcx, c.align - 1);
    } else {
      e_.lea_r32(Gp::rax,
                 x::ptr(Gp::rcx, static_cast<std::int32_t>(c.align_off)));
      e_.test_ri(Gp::rax, c.align - 1);
    }
    e_.jcc(Cc::kNe, miss);
  }
}

// One slow-path site. The record's morph handler retires into the ledger
// in memory, so the history leaves its registers first and comes back
// after (on a fault too, so the thunk's final write-back stores what the
// handler left), and the block's toggle sums are added into the ledger.
// The call clobbers the address history, the open row and the sums; the
// operand pair sits in callee-saved %rbp and moves only for a record whose
// handler tallies operand toggles (rebuilt canonical first). The site's
// compile-time toggle constants stay pending past a returning call; its
// fault exit adds them (a FaultStub). Inline rather than in a stub shared
// by the block: behind one more call level the helper path measured 4-8 %
// slower on the Table-II calibration kernels whose every tested record
// takes it (the integer divides).
void BlockCompiler::emit_helper_call(std::uint32_t i) {
  const bool operands = tallies_operands(dcache_[word0_ + i].op);
  if (ledger_ != nullptr) {
    if (operands) emit_canonical_history();
    store_history(e_, operands);
    emit_flush_accumulators();
  }
  e_.mov_rr64(Gp::rdi, kRt);
  e_.mov_ri(Gp::rsi, i);
  e_.mov_ri64(Gp::rax, reinterpret_cast<std::uint64_t>(&nfp_jit_exec_insn));
  e_.call_r(Gp::rax);
  if (ledger_ != nullptr) {
    load_history(e_, operands);
    emit_clear_accumulators();
  }
  e_.test_rr(Gp::rax, Gp::rax);
  if (lazy_.clean()) {
    e_.jcc(Cc::kNe, fault_);
  } else {
    fault_stubs_.push_back(FaultStub{});
    fault_stubs_.back().lazy = lazy_;
    e_.jcc(Cc::kNe, fault_stubs_.back().entry);
  }
}

void BlockCompiler::emit_ea(const isa::DecodedInsn& d) {
  load_rs1(d, Gp::rcx);  // 32-bit moves zero-extend %rcx
  if (d.has_imm) {
    if (d.imm != 0) e_.add_ri(Gp::rcx, static_cast<std::uint32_t>(d.imm));
  } else {
    e_.add_rm(Gp::rcx, reg_m(d.rs2));
  }
}

// Everything an exit path owes before it leaves the block: the pending
// toggle constants and sums into the ledger, the canonical %rbp the next
// block (or the thunk) expects, instret, and one visit of this path's
// counter (fold_counts turns visits into per-op retire counts).
void BlockCompiler::emit_exit_accounting(std::uint32_t retired,
                                         int extra_op) {
  emit_flush_pending(/*to_memory=*/false);
  emit_flush_accumulators();
  emit_canonical_history();
  e_.add_mi64(x::ptr(kCpu, kOffInstret), static_cast<std::int32_t>(retired));
  if (counted_) {
    const auto slot =
        slot_base_ + static_cast<std::uint32_t>(slot_extras_.size());
    slot_extras_.push_back(extra_op < 0 ? JitRuntime::kNoExtra
                                        : static_cast<std::uint8_t>(extra_op));
    e_.mov_rm64(Gp::rax, x::ptr(kRt, kRtVisits));
    e_.add_mi64(x::ptr(Gp::rax, static_cast<std::int32_t>(8 * slot)), 1);
  }
}

void BlockCompiler::emit_static_exit(std::uint32_t exit_pc,
                                     std::uint32_t retired, int extra_op,
                                     int cti_taken) {
  const State saved = save();
  if (cti_taken == 0) emit_untaken_tally();
  emit_exit_accounting(retired, extra_op);
  JitExit exit;
  exit.exit_pc = exit_pc;
  exit.patch_off = e_.jmp_patchable();
  exit.stub_off = e_.offset();
  e_.mov_mi(x::ptr(kCpu, kOffPc), exit_pc);
  e_.mov_mi(x::ptr(kCpu, kOffNpc), exit_pc + 4);
  e_.ret();
  exits_.push_back(exit);
  restore(saved);
}

void BlockCompiler::emit_delayed_exit(std::uint32_t cti_pc,
                                      std::uint32_t target) {
  const State saved = save();
  if (fold_) {
    folds_delay_ = true;
    x::Label pending;
    e_.test_rr64(kBudget, kBudget);
    e_.jcc(Cc::kE, pending);
    e_.sub_ri64(kBudget, 1);
    emit_insn(*delay_, b_.len);  // foldable ops never take slow paths
    emit_static_exit(target, b_.len + 1, static_cast<int>(delay_->op));
    restore(saved);
    e_.bind(pending);
  }
  // Budget exhausted (or unfoldable delay): the interpreter's post-CTI
  // state, pc at the delay slot with npc redirected; the host single-steps.
  emit_exit_accounting(b_.len, -1);
  e_.mov_mi(x::ptr(kCpu, kOffPc), cti_pc + 4);
  e_.mov_mi(x::ptr(kCpu, kOffNpc), target);
  e_.ret();
  restore(saved);
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
  switch (d.op) {
    case Op::kCall: {
      e_.mov_mi(reg_m(isa::kRegO7), cti_pc);
      facts_[isa::kRegO7] = {};
      emit_delayed_exit(cti_pc, cti_pc + static_cast<std::uint32_t>(d.imm));
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
          emit_delayed_exit(cti_pc, target);
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
      emit_delayed_exit(cti_pc, target);
      return;
    }
    case Op::kJmpl:
      emit_jmpl(d, cti_pc);
      return;
    default:
      failed_ = true;
      return;
  }
}

void BlockCompiler::emit_jmpl(const isa::DecodedInsn& d,
                              std::uint32_t cti_pc) {
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
  if (d.rd != 0) {
    e_.mov_mi(reg_m(d.rd), cti_pc);
    facts_[d.rd] = {};
  }
  // Stash npc = target before the folded delay (which may overwrite %ecx's
  // source register but never reads pc/npc).
  e_.mov_mr(x::ptr(kCpu, kOffNpc), Gp::rcx);
  const State saved = save();
  if (fold_) {
    folds_delay_ = true;
    x::Label pending;
    e_.test_rr64(kBudget, kBudget);
    e_.jcc(Cc::kE, pending);
    e_.sub_ri64(kBudget, 1);
    emit_insn(*delay_, b_.len);
    emit_exit_accounting(b_.len + 1, static_cast<int>(delay_->op));
    e_.mov_rm(Gp::rcx, x::ptr(kCpu, kOffNpc));
    e_.mov_mr(x::ptr(kCpu, kOffPc), Gp::rcx);
    e_.add_ri(Gp::rcx, 4);
    e_.mov_mr(x::ptr(kCpu, kOffNpc), Gp::rcx);
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
    restore(saved);
    e_.bind(pending);
  }
  emit_exit_accounting(b_.len, -1);
  e_.mov_mi(x::ptr(kCpu, kOffPc), cti_pc + 4);
  e_.ret();  // npc already holds the target
  restore(saved);
}

void BlockCompiler::emit_load(const isa::DecodedInsn& d, std::uint32_t i) {
  emit_ea(d);  // %ecx = ea
  // A hoisted access was proven aligned and in RAM by the prologue.
  ColdCall* const c = hoisted_[i] ? nullptr : &new_cold(i);
  const std::uint32_t align = access_width(d.op) - 1;
  if (c != nullptr && align != 0) {
    e_.test_ri(Gp::rcx, align);
    e_.jcc(Cc::kNe, c->slow);
  }
  // RAM range check; off-RAM (MMIO word loads, bad addresses) → helper.
  if (c != nullptr) {
    e_.lea_r32(Gp::rdx,
               x::ptr(Gp::rcx, -static_cast<std::int32_t>(kRamBase)));
    e_.cmp_ri(Gp::rdx, kRamSize);
    e_.jcc(Cc::kAe, c->slow);
  }
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
    case Op::kLdf:  // %f0 is an ordinary register
      e_.mov_rm(Gp::rax, m);
      e_.bswap_r(Gp::rax);
      e_.mov_mr(freg_m(d.rd), Gp::rax);
      break;
    case Op::kLddf:  // even rd, like kLdd
      e_.mov_rm(Gp::rax, m);
      e_.bswap_r(Gp::rax);
      e_.mov_mr(freg_m(d.rd), Gp::rax);
      e_.mov_rm(Gp::rax, x::ptr_idx(kRam, Gp::rcx, 4));
      e_.bswap_r(Gp::rax);
      e_.mov_mr(freg_m(d.rd + 1u), Gp::rax);
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
  if (c != nullptr) e_.bind(c->resume);
}

void BlockCompiler::emit_store(const isa::DecodedInsn& d, std::uint32_t i) {
  emit_ea(d);  // %ecx = ea
  // A hoisted store was proven aligned, in RAM and past the text by the
  // prologue.
  ColdCall* const c = hoisted_[i] ? nullptr : &new_cold(i);
  const std::uint32_t width = access_width(d.op);
  // Word k of the store data: an integer or (stf/stdf) an FP register.
  const bool fp = d.op == Op::kStf || d.op == Op::kStdf;
  const auto data_m = [&](std::uint32_t k) {
    return fp ? freg_m(d.rd + k) : reg_m(d.rd + k);
  };
  e_.lea_r32(Gp::rdx, x::ptr(Gp::rcx, -static_cast<std::int32_t>(kRamBase)));
  if (c != nullptr) {
    if (width > 1) {
      e_.test_ri(Gp::rcx, width - 1);
      e_.jcc(Cc::kNe, c->slow);
    }
    e_.cmp_ri(Gp::rdx, kRamSize);
    e_.jcc(Cc::kAe, c->slow);
    // Self-modifying code guard: any store intersecting the cached text
    // [code_base, code_base + limit) goes through the helper, whose h_store
    // invalidates overlapping blocks exactly like the interpreter. Static
    // data lies past the text, so stores to it stay on this fast path.
    // Intersection over [ea, ea + width): ea - (code_base - (width-1)) <
    // limit + (width-1), unsigned.
    e_.lea_r32(Gp::rax,
               x::ptr(Gp::rcx,
                      -static_cast<std::int32_t>(code_base_ - (width - 1))));
    e_.cmp_ri(Gp::rax, code_limit_ + (width - 1));
    e_.jcc(Cc::kB, c->slow);
  }
  const x::Mem m = x::ptr_idx(kRam, Gp::rcx);
  switch (d.op) {
    case Op::kSt:
    case Op::kStf:
      e_.mov_rm(Gp::rax, data_m(0));
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
    default:  // kStd/kStdf, even rd
      e_.mov_rm(Gp::rax, data_m(0));
      e_.bswap_r(Gp::rax);
      e_.mov_mr(m, Gp::rax);
      e_.mov_rm(Gp::rax, data_m(1));
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
  // std/stdf tallying the second word).
  if (ledger_ != nullptr && ledger_->variation) {
    e_.mov_rm(Gp::rax, data_m(width == 8 ? 1 : 0));
    if (d.op == Op::kStb) e_.and_ri(Gp::rax, 0xFF);
    if (d.op == Op::kSth) e_.and_ri(Gp::rax, 0xFFFF);
  }
  emit_memory_tally(d.op);
  if (c != nullptr) e_.bind(c->resume);
}

// Whether d adds a toggle popcount to toggles[op] inline: an ALU or FPU
// retire pair, or a templated load/store (odd-rd doublewords go to the
// helper).
bool BlockCompiler::tallies_toggles_inline(const isa::DecodedInsn& d) const {
  if (ledger_ == nullptr || !ledger_->variation) return false;
  switch (d.op) {
    case Op::kLd: case Op::kLdub: case Op::kLdsb: case Op::kLduh:
    case Op::kLdsh: case Op::kSt: case Op::kStb: case Op::kSth:
    case Op::kLdf: case Op::kStf:
      return true;
    case Op::kLdd: case Op::kStd: case Op::kLddf: case Op::kStdf:
      return (d.rd & 1) == 0;
    default:
      return tallies_operands(d.op) &&
             (delay_foldable(d.op) || isa::is_fpu(d.op));
  }
}

// Gives the ops with the most inline toggle tallies in this block (the
// folded delay slot included) a register each. An op tallied once gains
// nothing from one, so it needs two sites; a record whose operands are
// both compile-time constants is no site (its popcount folds).
void BlockCompiler::pick_accumulators() {
  std::array<std::uint32_t, isa::kOpCount> sites{};
  const std::uint32_t body = b_.ends_with_cti ? b_.len - 1 : b_.len;
  for (std::uint32_t i = 0; i < body; ++i) {
    const isa::DecodedInsn& d = dcache_[word0_ + i];
    if (tallies_toggles_inline(d) && runtime_toggles_[i]) {
      ++sites[static_cast<std::size_t>(d.op)];
    }
  }
  if (fold_ && tallies_toggles_inline(*delay_)) {
    ++sites[static_cast<std::size_t>(delay_->op)];
  }
  for (std::size_t k = 0; k < std::size(kAccRegs); ++k) {
    const auto best = std::max_element(sites.begin(), sites.end());
    if (*best < 2) break;
    accs_.push_back(static_cast<Op>(best - sites.begin()));
    *best = 0;
  }
}

// %eax holds one retire's toggle popcount.
void BlockCompiler::emit_toggle_add(Op op) {
  for (std::size_t k = 0; k < accs_.size(); ++k) {
    if (accs_[k] == op) {
      e_.add_rr(kAccRegs[k], Gp::rax);
      return;
    }
  }
  e_.add_mr64(tally_m(offsetof(CostLedger, toggles), op), Gp::rax);
}

void BlockCompiler::emit_flush_accumulators() {
  for (std::size_t k = 0; k < accs_.size(); ++k) {
    e_.add_mr64(tally_m(offsetof(CostLedger, toggles), accs_[k]),
                kAccRegs[k]);
  }
}

// Adds the pending compile-time popcounts: into an op's accumulator when it
// has one and the sums are flushed next (exits), else into the ledger.
void BlockCompiler::emit_flush_pending(bool to_memory) {
  for (const auto& [op, k] : lazy_.pending) {
    const auto acc = std::find(accs_.begin(), accs_.end(), op);
    if (!to_memory && acc != accs_.end()) {
      e_.add_ri(kAccRegs[acc - accs_.begin()], k);
    } else {
      e_.add_mi64(tally_m(offsetof(CostLedger, toggles), op),
                  static_cast<std::int32_t>(k));
    }
  }
  lazy_.pending.clear();
}

void BlockCompiler::emit_clear_accumulators() {
  for (std::size_t k = 0; k < accs_.size(); ++k) {
    e_.xor_rr(kAccRegs[k], kAccRegs[k]);
  }
}

// Rebuilds %rbp = prev_b:prev_a from the halves known at compile time;
// runtime halves stay where they are. Clobbers %rax.
void BlockCompiler::emit_canonical_history() {
  HistHalf& a = lazy_.hist[0];
  HistHalf& b = lazy_.hist[1];
  if (a.known && b.known) {
    e_.mov_ri64(kHist, (std::uint64_t{b.value} << 32) | a.value);
  } else if (a.known) {
    e_.shr_ri64(kHist, 32);
    e_.shl_ri64(kHist, 32);
    if (a.value != 0) {
      e_.mov_ri(Gp::rax, a.value);
      e_.or_rr64(kHist, Gp::rax);
    }
  } else if (b.known) {
    e_.mov_rr(kHist, kHist);  // zero-extends: clears the high half
    if (b.value != 0) {
      e_.mov_ri64(Gp::rax, std::uint64_t{b.value} << 32);
      e_.or_rr64(kHist, Gp::rax);
    }
  }
  a.known = b.known = false;
}

// Retire operands of the statically non-faulting ALU class (exactly the
// delay-foldable set) as the morph handlers tally them, pre-writeback (see
// block_cache.cpp): {r[rs1], op2}, shifts taking the count mod 32, sethi
// {0, imm}, rdy {y, 0}, nop {0, 0}. A register the facts prove constant is
// a constant half. Loads/stores tally at the end of their fast path,
// helper-routed records in their handler, the CTI at its exits.
std::array<OperandHalf, 2> BlockCompiler::operand_halves(
    const RegFacts& f, const isa::DecodedInsn& d) {
  std::array<OperandHalf, 2> h{};
  switch (d.op) {
    case Op::kNop:
      return h;
    case Op::kSethi:
      h[1].value = static_cast<std::uint32_t>(d.imm);
      return h;
    case Op::kRdy:
      h[0] = {false, 0, kOffY, false};
      return h;
    default:
      break;
  }
  const bool shift =
      d.op == Op::kSll || d.op == Op::kSrl || d.op == Op::kSra;
  const std::uint32_t mask = shift ? 31u : ~0u;
  if (f[d.rs1].is_const()) {
    h[0].value = f[d.rs1].value;
  } else {
    h[0] = {false, 0, 4 * static_cast<std::int32_t>(d.rs1), false};
  }
  const RegFact b = op2_fact(f, d);
  if (b.is_const()) {
    h[1].value = b.value & mask;
  } else {
    h[1] = {false, 0, 4 * static_cast<std::int32_t>(d.rs2), shift};
  }
  return h;
}

// Operand-toggle tally of one ALU record, toggles[op] += popcount(b ^
// prev_b) + popcount(a ^ prev_a), then b:a becomes the history. A half
// whose operand and history are both compile-time constants folds into the
// pending constants; one runtime half is a 32-bit popcount against its
// history half (%rbp's, or an immediate); two take the packed 64-bit form.
void BlockCompiler::emit_alu_toggles(const isa::DecodedInsn& d) {
  const auto h = operand_halves(facts_, d);
  auto& hist = lazy_.hist;
  bool rt[2];
  std::uint32_t folded = 0;
  for (int k = 0; k < 2; ++k) {
    rt[k] = !(h[k].is_const && hist[k].known);
    if (!rt[k]) folded += std::popcount(h[k].value ^ hist[k].value);
  }
  if (h[0].is_const && h[1].is_const) {
    // Only history halves still in %rbp need the host.
    if (rt[0] && rt[1]) {
      e_.mov_ri64(Gp::rax, (std::uint64_t{h[1].value} << 32) | h[0].value);
      e_.xor_rr64(Gp::rax, kHist);
      e_.popcnt_rr64(Gp::rax, Gp::rax);
    } else if (rt[0]) {
      e_.mov_rr(Gp::rax, kHist);
      if (h[0].value != 0) e_.xor_ri(Gp::rax, h[0].value);
      e_.popcnt_rr(Gp::rax, Gp::rax);
    } else if (rt[1]) {
      e_.mov_rr64(Gp::rax, kHist);
      e_.shr_ri64(Gp::rax, 32);
      if (h[1].value != 0) e_.xor_ri(Gp::rax, h[1].value);
      e_.popcnt_rr(Gp::rax, Gp::rax);
    }
    if (rt[0] || rt[1]) emit_toggle_add(d.op);
    hist[0] = {true, h[0].value};
    hist[1] = {true, h[1].value};
  } else if (rt[0] && rt[1]) {
    emit_packed_toggles(d, h);
  } else {
    // One runtime operand half k; the other half folded above.
    const int k = rt[0] ? 0 : 1;
    e_.mov_rm(Gp::rdx, x::ptr(kCpu, h[k].off));
    if (h[k].mask31) e_.and_ri(Gp::rdx, 31);
    if (k == 0) {  // %ebp is prev_a; %rbp's high half is stale
      if (hist[0].known) {
        e_.mov_rr(kHist, Gp::rdx);
        if (hist[0].value != 0) e_.xor_ri(Gp::rdx, hist[0].value);
        e_.popcnt_rr(Gp::rax, Gp::rdx);
      } else {
        e_.xor_rr(kHist, Gp::rdx);
        e_.popcnt_rr(Gp::rax, kHist);
        e_.mov_rr(kHist, Gp::rdx);
      }
    } else {  // %rbp's high half is prev_b; its low half is stale
      if (hist[1].known) {
        e_.mov_rr64(kHist, Gp::rdx);
        e_.shl_ri64(kHist, 32);
        if (hist[1].value != 0) e_.xor_ri(Gp::rdx, hist[1].value);
        e_.popcnt_rr(Gp::rax, Gp::rdx);
      } else {
        e_.shr_ri64(kHist, 32);
        e_.xor_rr(kHist, Gp::rdx);
        e_.popcnt_rr(Gp::rax, kHist);
        e_.mov_rr64(kHist, Gp::rdx);
        e_.shl_ri64(kHist, 32);
      }
    }
    emit_toggle_add(d.op);
    hist[k] = {};
    hist[1 - k] = {true, h[1 - k].value};
  }
  lazy_.add(d.op, folded);
}

// Both halves need the host: %rbp made canonical, b:a packed into %rdx,
// one 64-bit popcount. Clobbers %rcx.
void BlockCompiler::emit_packed_toggles(const isa::DecodedInsn& d,
                                        const std::array<OperandHalf, 2>& h) {
  emit_canonical_history();
  if (h[0].is_const) {
    e_.mov_ri(Gp::rdx, h[0].value);
  } else {
    e_.mov_rm(Gp::rdx, x::ptr(kCpu, h[0].off));  // 32-bit moves zero-extend
  }
  if (h[1].is_const) {
    if (h[1].value != 0) {
      e_.mov_ri64(Gp::rcx, std::uint64_t{h[1].value} << 32);
      e_.or_rr64(Gp::rdx, Gp::rcx);
    }
  } else {
    e_.mov_rm(Gp::rcx, x::ptr(kCpu, h[1].off));
    if (h[1].mask31) e_.and_ri(Gp::rcx, 31);
    e_.shl_ri64(Gp::rcx, 32);
    e_.or_rr64(Gp::rdx, Gp::rcx);
  }
  emit_operand_toggles(d.op);
  // %rbp holds the whole pair; a constant half is also known from here on.
  for (int k = 0; k < 2; ++k) {
    if (h[k].is_const) lazy_.hist[k] = {true, h[k].value};
  }
}

// Operand-toggle tally of the packed pair in %rdx against a canonical
// %rbp: toggles[op] += popcount(b:a ^ prev_b:prev_a), then the pair becomes
// the new history.
void BlockCompiler::emit_operand_toggles(Op op) {
  e_.xor_rr64(kHist, Gp::rdx);
  e_.popcnt_rr64(Gp::rax, kHist);
  e_.mov_rr64(kHist, Gp::rdx);
  emit_toggle_add(op);
}

// Memory tally of {%ecx = ea, %eax = data}, mirroring CostLedger::retire:
// the address/data toggle popcount, the address history, and the SDRAM
// open-row compare (a miss tallies out of line). Clobbers all three.
void BlockCompiler::emit_memory_tally(Op op) {
  if (ledger_ == nullptr) return;
  if (ledger_->variation) {
    e_.xor_rr(kPrevAddr, Gp::rcx);
    e_.popcnt_rr(Gp::rdx, kPrevAddr);
    e_.popcnt_rr(Gp::rax, Gp::rax);
    e_.add_rr(Gp::rax, Gp::rdx);
    emit_toggle_add(op);
  }
  e_.mov_rr(kPrevAddr, Gp::rcx);
  e_.shr_ri(Gp::rcx, static_cast<std::uint8_t>(ledger_->row_bits));
  e_.cmp_rr(Gp::rcx, kOpenRow);
  row_misses_.push_back(RowMiss{});
  RowMiss& r = row_misses_.back();
  r.op = op;
  e_.jcc(Cc::kNe, r.entry);
  e_.bind(r.resume);
}

// One record under the register facts: a plain ALU result the facts prove
// constant is one immediate store, one that copies an operand unchanged (a
// `mov`, an add of zero) one copy or nothing, and a register operand 2 the
// facts prove constant becomes the immediate form of the template.
void BlockCompiler::emit_insn(const isa::DecodedInsn& d, std::uint32_t i) {
  if (tallies_operands(d.op) && delay_foldable(d.op)) {
    emit_alu_toggles(d);
    rs1_in_hist_ = d.op != Op::kRdy && !lazy_.hist[0].known;
  }
  RegFacts after = facts_;
  step_facts(after, d);
  bool plain = false;  // rd's new value is all the record does
  switch (d.op) {
    case Op::kAdd: case Op::kSub: case Op::kAnd: case Op::kAndn:
    case Op::kOr: case Op::kOrn: case Op::kXor: case Op::kXnor:
    case Op::kSll: case Op::kSrl: case Op::kSra:
    case Op::kSave: case Op::kRestore:
      plain = true;
      break;
    default:
      break;
  }
  const bool int_op2 = (delay_foldable(d.op) && d.op != Op::kSethi &&
                        d.op != Op::kNop && d.op != Op::kRdy) ||
                       isa::is_load(d.op) || isa::is_store(d.op);
  // The register a plain record copies unchanged: `or`, `xor` or `add`
  // with a zero operand, `sub` of zero.
  int copied = -1;
  const RegFact b = op2_fact(facts_, d);
  const bool zero_a = facts_[d.rs1].is_const() && facts_[d.rs1].value == 0;
  const bool zero_b = b.is_const() && b.value == 0;
  if (d.op == Op::kOr || d.op == Op::kXor || d.op == Op::kAdd) {
    if (zero_a && !d.has_imm) copied = d.rs2;
    if (zero_b) copied = d.rs1;
  } else if (d.op == Op::kSub && zero_b) {
    copied = d.rs1;
  }
  if (plain && after[d.rd].is_const()) {
    if (d.rd != 0) e_.mov_mi(reg_m(d.rd), after[d.rd].value);
  } else if (copied >= 0) {
    if (copied != d.rd) {
      if (copied == d.rs1) {
        load_rs1(d, Gp::rax);
      } else {
        e_.mov_rm(Gp::rax, reg_m(static_cast<std::uint32_t>(copied)));
      }
      store_rd(d);
    }
  } else if (int_op2 && !d.has_imm && facts_[d.rs2].is_const()) {
    isa::DecodedInsn k = d;
    k.has_imm = true;
    k.imm = static_cast<std::int32_t>(facts_[d.rs2].value);
    emit_record(k, i);
  } else {
    emit_record(d, i);
  }
  facts_ = after;
  rs1_in_hist_ = false;
}

void BlockCompiler::emit_record(const isa::DecodedInsn& d, std::uint32_t i) {
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
      load_rs1(d, Gp::rax);
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
      load_rs1(d, Gp::rax);
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
      load_rs1(d, Gp::rax);
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
      load_rs1(d, Gp::rax);
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
      load_rs1(d, Gp::rax);
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
        load_rs1(d, Gp::rax);
        const auto count =
            static_cast<std::uint8_t>(static_cast<std::uint32_t>(d.imm) & 31);
        if (d.op == Op::kSll) e_.shl_ri(Gp::rax, count);
        else if (d.op == Op::kSrl) e_.shr_ri(Gp::rax, count);
        else e_.sar_ri(Gp::rax, count);
      } else {
        e_.mov_rm(Gp::rcx, reg_m(d.rs2));  // hardware masks %cl to 5 bits
        load_rs1(d, Gp::rax);
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
      load_rs1(d, Gp::rax);
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
      load_rs1(d, Gp::rax);
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
      emit_helper_call(i);
      return;

    case Op::kLd: case Op::kLdub: case Op::kLdsb:
    case Op::kLduh: case Op::kLdsh:
      emit_load(d, i);
      return;
    case Op::kLdd:
      if (d.rd & 1) {
        emit_helper_call(i);  // faults (odd rd), interpreter-identical
      } else {
        emit_load(d, i);
      }
      return;

    case Op::kSt: case Op::kStb: case Op::kSth: case Op::kStf:
      emit_store(d, i);
      return;
    case Op::kStd:
    case Op::kStdf:
      if (d.rd & 1) {
        emit_helper_call(i);
      } else {
        emit_store(d, i);
      }
      return;
    case Op::kLdf:
      emit_load(d, i);
      return;
    case Op::kLddf:
      if (d.rd & 1) {
        emit_helper_call(i);
      } else {
        emit_load(d, i);
      }
      return;

    default:
      if (isa::is_fpu(d.op)) {
        emit_fpu(d, i);
        return;
      }
      // CTIs mid-block, Ticc, invalid — none can appear in a morphed block
      // body; refuse rather than miscompile if that ever changes.
      failed_ = true;
      return;
  }
}

// The SPARC double in f[reg] (high word) and f[(reg + 1) & 31] (low word)
// into the low qword of `dst`: an adjacent pair is one load and a dword
// swap, the %f31/%f0 pair two single loads. Clobbers %xmm7.
void BlockCompiler::emit_load_d(Xmm dst, std::uint32_t reg) {
  if (reg != 31) {
    e_.movsd_rm(dst, freg_m(reg));
    e_.pshufd(dst, dst, 0xE1);
  } else {
    e_.movss_rm(dst, freg_m(0));
    e_.movss_rm(Xmm::xmm7, freg_m(31));
    e_.unpcklps(dst, Xmm::xmm7);
  }
}

// The inverse of emit_load_d (CpuState::write_d). Clobbers %xmm7.
void BlockCompiler::emit_store_d(std::uint32_t reg, Xmm src) {
  e_.pshufd(Xmm::xmm7, src, reg != 31 ? 0xE1 : 0x01);
  if (reg != 31) {
    e_.movsd_mr(freg_m(reg), Xmm::xmm7);
  } else {
    e_.movss_mr(freg_m(0), src);
    e_.movss_mr(freg_m(31), Xmm::xmm7);
  }
}

// The FPU record's retire operands, read from the register file after the
// result landed (the morph handlers' shape: {f[rs1], f[rs2]} for the
// two-operand ops and fcmp, {0, f[rs2]} for the rest), tallied like an ALU
// pair.
void BlockCompiler::emit_fp_operands(const isa::DecodedInsn& d) {
  if (!tallies_operands(d.op)) return;
  emit_canonical_history();
  const bool pair = (d.op >= Op::kFadds && d.op <= Op::kFdivd) ||
                    d.op == Op::kFcmps || d.op == Op::kFcmpd;
  e_.mov_rm(Gp::rdx, freg_m(pair ? d.rs1 : d.rs2));
  if (pair) {
    e_.mov_rm(Gp::rcx, freg_m(d.rs2));
    e_.shl_ri64(Gp::rcx, 32);
    e_.or_rr64(Gp::rdx, Gp::rcx);
  } else {
    e_.shl_ri64(Gp::rdx, 32);
  }
  emit_operand_toggles(d.op);
  if (!pair) lazy_.hist[0] = {true, 0};  // %rbp holds it too
}

// SSE2 templates of the FPU ops. The host computes with the same IEEE
// scalar instructions as the interpreter's C++ (same rounding, no flush to
// zero), so every ordinary result is the interpreter's bit for bit. Two
// kinds of result go to the helper before anything is written, so the
// interpreter's own code produces them: a NaN (which NaN is an
// implementation choice, pinned in C++ by nan_from_operands) and an
// fstoi/fdtoi truncation that hits the 0x80000000 sentinel (NaN, out of
// range, or exactly -2^31 — to_int32 saturates and maps NaN to 0).
void BlockCompiler::emit_fpu(const isa::DecodedInsn& d, std::uint32_t i) {
  // Bit copies, integer-to-FP conversions and compares always complete
  // natively; the rest may leave through the helper.
  const bool exact = d.op == Op::kFmovs || d.op == Op::kFnegs ||
                     d.op == Op::kFabss || d.op == Op::kFitos ||
                     d.op == Op::kFitod || d.op == Op::kFcmps ||
                     d.op == Op::kFcmpd;
  ColdCall* const c = exact ? nullptr : &new_cold(i);
  const auto nan_exit = [&](bool dbl) {
    if (dbl) {
      e_.ucomisd(Xmm::xmm0, Xmm::xmm0);
    } else {
      e_.ucomiss(Xmm::xmm0, Xmm::xmm0);
    }
    e_.jcc(Cc::kP, c->slow);
  };
  const auto sentinel_exit = [&] {
    e_.cmp_ri(Gp::rax, 0x80000000u);
    e_.jcc(Cc::kE, c->slow);
  };
  switch (d.op) {
    case Op::kFadds: case Op::kFsubs: case Op::kFmuls: case Op::kFdivs:
      e_.movss_rm(Xmm::xmm0, freg_m(d.rs1));
      e_.movss_rm(Xmm::xmm1, freg_m(d.rs2));
      if (d.op == Op::kFadds) e_.addss(Xmm::xmm0, Xmm::xmm1);
      if (d.op == Op::kFsubs) e_.subss(Xmm::xmm0, Xmm::xmm1);
      if (d.op == Op::kFmuls) e_.mulss(Xmm::xmm0, Xmm::xmm1);
      if (d.op == Op::kFdivs) e_.divss(Xmm::xmm0, Xmm::xmm1);
      nan_exit(false);
      e_.movss_mr(freg_m(d.rd), Xmm::xmm0);
      break;
    case Op::kFaddd: case Op::kFsubd: case Op::kFmuld: case Op::kFdivd:
      emit_load_d(Xmm::xmm0, d.rs1);
      emit_load_d(Xmm::xmm1, d.rs2);
      if (d.op == Op::kFaddd) e_.addsd(Xmm::xmm0, Xmm::xmm1);
      if (d.op == Op::kFsubd) e_.subsd(Xmm::xmm0, Xmm::xmm1);
      if (d.op == Op::kFmuld) e_.mulsd(Xmm::xmm0, Xmm::xmm1);
      if (d.op == Op::kFdivd) e_.divsd(Xmm::xmm0, Xmm::xmm1);
      nan_exit(true);
      emit_store_d(d.rd, Xmm::xmm0);
      break;
    case Op::kFsqrts:
      e_.movss_rm(Xmm::xmm0, freg_m(d.rs2));
      e_.sqrtss(Xmm::xmm0, Xmm::xmm0);
      nan_exit(false);
      e_.movss_mr(freg_m(d.rd), Xmm::xmm0);
      break;
    case Op::kFsqrtd:
      emit_load_d(Xmm::xmm0, d.rs2);
      e_.sqrtsd(Xmm::xmm0, Xmm::xmm0);
      nan_exit(true);
      emit_store_d(d.rd, Xmm::xmm0);
      break;
    case Op::kFmovs: case Op::kFnegs: case Op::kFabss:  // bit copies
      e_.mov_rm(Gp::rax, freg_m(d.rs2));
      if (d.op == Op::kFnegs) e_.xor_ri(Gp::rax, 0x80000000u);
      if (d.op == Op::kFabss) e_.and_ri(Gp::rax, 0x7FFFFFFFu);
      e_.mov_mr(freg_m(d.rd), Gp::rax);
      break;
    case Op::kFitos:
      e_.mov_rm(Gp::rax, freg_m(d.rs2));
      e_.cvtsi2ss(Xmm::xmm0, Gp::rax);
      e_.movss_mr(freg_m(d.rd), Xmm::xmm0);
      break;
    case Op::kFitod:
      e_.mov_rm(Gp::rax, freg_m(d.rs2));
      e_.cvtsi2sd(Xmm::xmm0, Gp::rax);
      emit_store_d(d.rd, Xmm::xmm0);
      break;
    case Op::kFstoi:
      e_.movss_rm(Xmm::xmm0, freg_m(d.rs2));
      e_.cvttss2si(Gp::rax, Xmm::xmm0);
      sentinel_exit();
      e_.mov_mr(freg_m(d.rd), Gp::rax);
      break;
    case Op::kFdtoi:
      emit_load_d(Xmm::xmm0, d.rs2);
      e_.cvttsd2si(Gp::rax, Xmm::xmm0);
      sentinel_exit();
      e_.mov_mr(freg_m(d.rd), Gp::rax);
      break;
    case Op::kFstod:
      e_.movss_rm(Xmm::xmm0, freg_m(d.rs2));
      e_.cvtss2sd(Xmm::xmm0, Xmm::xmm0);
      nan_exit(true);
      emit_store_d(d.rd, Xmm::xmm0);
      break;
    case Op::kFdtos:
      emit_load_d(Xmm::xmm0, d.rs2);
      e_.cvtsd2ss(Xmm::xmm0, Xmm::xmm0);
      nan_exit(false);
      e_.movss_mr(freg_m(d.rd), Xmm::xmm0);
      break;
    case Op::kFcmps:
    case Op::kFcmpd:
      // fcc = unordered ? 3 : equal ? 0 : less ? 1 : 2. After ucomis*,
      // CF = less-or-unordered, "above" = greater, PF = unordered, so
      // fcc = CF + 2 * (above | PF) in the low byte.
      if (d.op == Op::kFcmps) {
        e_.movss_rm(Xmm::xmm0, freg_m(d.rs1));
        e_.movss_rm(Xmm::xmm1, freg_m(d.rs2));
        e_.ucomiss(Xmm::xmm0, Xmm::xmm1);
      } else {
        emit_load_d(Xmm::xmm0, d.rs1);
        emit_load_d(Xmm::xmm1, d.rs2);
        e_.ucomisd(Xmm::xmm0, Xmm::xmm1);
      }
      e_.setcc_r(Cc::kB, Gp::rax);
      e_.setcc_r(Cc::kA, Gp::rcx);
      e_.setcc_r(Cc::kP, Gp::rdx);
      e_.or_rr(Gp::rcx, Gp::rdx);
      e_.add_rr(Gp::rcx, Gp::rcx);
      e_.add_rr(Gp::rax, Gp::rcx);
      e_.mov_mr8(x::ptr(kCpu, kOffFcc), Gp::rax);
      break;
    default:  // every FPU op has a template; refuse rather than guess
      failed_ = true;
      return;
  }
  emit_fp_operands(d);
  if (c != nullptr) e_.bind(c->resume);
}

}  // namespace

// ---- arena + thunk ---------------------------------------------------------

struct JitRuntime::Impl : ExecArena {
  static constexpr std::size_t kArenaBytes = std::size_t{16} << 20;
};

JitRuntime::JitRuntime(Bus& bus, BlockCache& cache)
    : bus_(bus), cache_(cache), impl_(std::make_unique<Impl>()) {
  if (!impl_->map(Impl::kArenaBytes)) throw arena_error();
  rt_.ram_bias = reinterpret_cast<std::uint8_t*>(
      reinterpret_cast<std::uintptr_t>(bus_.ram_data()) - kRamBase);
  rt_.touched = bus_.touched_data();
  rt_.fault_idx = kNoFault;
  rt_.owner = this;
  btc_.assign(kInlineBtcEntries, JitBtcSlot{});
  rt_.btc = btc_.data();

  // Entry thunk: uint64_t thunk(JitRt* rdi, const void* rsi, uint64_t rdx).
  // Loads the pinned registers (and a bound ledger's toggle history), calls
  // the block entry, writes the history back and returns the remaining
  // budget. Six pushes keep %rsp ≡ 0 (mod 16) at block entry.
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
  x::Label unbound_in;
  x::Label unbound_out;
  e.test_rr64(kLedger, kLedger);
  e.jcc(Cc::kE, unbound_in);
  load_history(e, true);
  e.bind(unbound_in);
  e.call_r(Gp::rsi);
  e.test_rr64(kLedger, kLedger);
  e.jcc(Cc::kE, unbound_out);
  store_history(e, true);
  e.bind(unbound_out);
  e.mov_rr64(Gp::rax, kBudget);
  e.pop_r(Gp::r15);
  e.pop_r(Gp::r14);
  e.pop_r(Gp::r13);
  e.pop_r(Gp::r12);
  e.pop_r(Gp::rbp);
  e.pop_r(Gp::rbx);
  e.ret();
  impl_->thunk_off = impl_->commit(e);
  if (impl_->thunk_off == Impl::kFull) throw arena_error();
  impl_->code_start = impl_->used;
}

JitRuntime::~JitRuntime() = default;

void JitRuntime::configure(CpuState* cpu, std::uint64_t* counts,
                           CostLedger* ledger) {
  // Visits owed to the old counts vector land there before it is rebound.
  if (counts != rt_.counts) fold_counts();
  // The visit counters and the ledger's configuration are baked per block;
  // the pointers themselves are loaded from JitRt at runtime, so only a
  // counts null <-> non-null change or a different ledger invalidates
  // compiled code.
  if (!metas_.empty() &&
      ((counts == nullptr) != (rt_.counts == nullptr) || ledger != rt_.ledger)) {
    reset_code();
  }
  rt_.cpu = cpu;
  rt_.counts = counts;
  rt_.ledger = ledger;
}

// Visits x profile of one block's exit paths. A slot with no visits never
// touches its meta's block, so a dead block's slots (folded at its death
// and, for a trace in flight, right after that native run) are safe to
// scan after the graveyard frees the Block.
void JitRuntime::fold_slots(const JitBlockMeta& m) noexcept {
  std::uint64_t* const counts = rt_.counts;
  for (std::uint32_t s = m.first_slot; s < m.first_slot + m.slots; ++s) {
    const std::uint64_t v = visits_[s];
    if (v == 0) continue;
    visits_[s] = 0;
    for (const BlockOpCount& p : m.block->profile) counts[p.op] += v * p.count;
    if (slots_[s].extra != kNoExtra) counts[slots_[s].extra] += v;
  }
}

void JitRuntime::fold_counts() noexcept {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (visits_[s] != 0) fold_slots(*metas_[slots_[s].meta]);
  }
  dying_.clear();
}

void JitRuntime::fold_dying() noexcept {
  for (const JitBlockMeta* m : dying_) fold_slots(*m);
  dying_.clear();
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
  fold_counts();
  visits_.clear();
  slots_.clear();
  rt_.visits = nullptr;
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
  // Emitted exits address their visit slots by absolute index, so a block
  // compiled before a reclaim is compiled again against the emptied slots.
  std::optional<BlockCompiler> comp;
  std::uint32_t off = Impl::kFull;
  for (int attempt = 0; attempt < 2; ++attempt) {
    comp.emplace(cache_, b, meta.get(), rt_.counts != nullptr, rt_.ledger,
                 static_cast<std::uint32_t>(visits_.size()));
    if (!comp->compile()) break;
    off = impl_->commit(comp->emitter());
    if (off != Impl::kFull || impl_->fits(comp->emitter().size()) ||
        attempt == 1) {
      break;
    }
    reset_code();  // arena full: reclaim it and compile into it again
  }
  if (off == Impl::kFull) {  // untemplatable block or failed write
    ++stats_.blocks_rejected;
    b.jit_state = Block::JitState::kRejected;
    return b.jit_state;
  }
  meta->entry_off = off;
  meta->exits = comp->take_exits();
  for (JitExit& exit : meta->exits) {
    exit.patch_off += off;
    exit.stub_off += off;
  }
  meta->first_slot = static_cast<std::uint32_t>(visits_.size());
  meta->slots = static_cast<std::uint32_t>(comp->slot_extras().size());
  for (const std::uint8_t extra : comp->slot_extras()) {
    visits_.push_back(0);
    slots_.push_back(
        VisitSlot{static_cast<std::uint32_t>(metas_.size()), extra});
  }
  rt_.visits = visits_.data();
  b.jit_folds_delay = comp->folds_delay();
  b.jit_meta = meta.get();
  b.jit_state = Block::JitState::kCompiled;
  ++stats_.blocks_compiled;
  stats_.code_bytes += comp->emitter().size();
  metas_.push_back(std::move(meta));
  return b.jit_state;
}

std::uint64_t JitRuntime::enter(Block& b, std::uint64_t budget) {
  ++stats_.entries;
  rt_.fault_idx = kNoFault;
  rt_.guard_miss = 0;
  pending_ = nullptr;
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
    // A failed write leaves the exit on its stub, returning to the host.
    if (!impl_->write_rel32(exit.patch_off, tm->entry_off)) return;
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
  // Its visits so far land now; a trace still in flight may bump one exit
  // more, which the host folds after the native run (fold_dying).
  fold_slots(*m);
  dying_.push_back(m);
  // A jump left in place would run stale code: the run fails (after the
  // bookkeeping) rather than continue unfaithfully.
  bool withdrawn = true;
  // Withdraw every patched jump INTO the dying code: a live predecessor must
  // fall back to its exit stub (and thence the host) instead of entering a
  // stale trace.
  for (const auto& [src, idx] : m->incoming) {
    JitExit& exit = src->exits[idx];
    withdrawn = impl_->write_rel32(exit.patch_off, exit.stub_off) && withdrawn;
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
    withdrawn = impl_->write_rel32(exit.patch_off, exit.stub_off) && withdrawn;
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
  // Withdraw inline-BTC entries targeting the dying code (the table lives
  // in plain heap memory, written directly).
  const std::uint64_t dead_entry =
      reinterpret_cast<std::uint64_t>(impl_->base) + m->entry_off;
  for (JitBtcSlot& s : btc_) {
    if (s.native == dead_entry) s = JitBtcSlot{};
  }
  if (!withdrawn) {
    throw std::runtime_error("jit: cannot withdraw a chained jump");
  }
}

#endif  // NFP_JIT_ENABLED

}  // namespace nfp::sim
