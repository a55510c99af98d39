// Minimal in-process x86-64 machine-code emitter for the template JIT
// (sim/jit.*). Deliberately small: exactly the instruction forms the block
// code generator emits — rex/modrm/sib encoding, 32/64-bit mov and ALU
// forms, setcc/jcc, byte/word memory ops for the big-endian bus fast paths,
// SSE2 scalar forms for the FPU templates, and call-through-register
// thunks. Encodings are pinned by byte-exact
// golden tests (tests/asmkit/x64_test.cpp) cross-checked against binutils.
//
// The emitter is host-independent — it only builds byte vectors — so it
// compiles and tests on every platform; only sim/jit.cpp decides whether the
// bytes can actually be executed.
#pragma once

#include <cstdint>
#include <vector>

namespace nfp::asmkit::x64 {

// Host general-purpose registers, numbered with their hardware encoding.
enum class Gp : std::uint8_t {
  rax = 0, rcx = 1, rdx = 2, rbx = 3, rsp = 4, rbp = 5, rsi = 6, rdi = 7,
  r8 = 8, r9 = 9, r10 = 10, r11 = 11, r12 = 12, r13 = 13, r14 = 14, r15 = 15,
};

// Host SSE registers, numbered with their hardware encoding.
enum class Xmm : std::uint8_t {
  xmm0 = 0, xmm1 = 1, xmm2 = 2, xmm3 = 3, xmm4 = 4, xmm5 = 5, xmm6 = 6,
  xmm7 = 7, xmm8 = 8, xmm9 = 9, xmm10 = 10, xmm11 = 11, xmm12 = 12,
  xmm13 = 13, xmm14 = 14, xmm15 = 15,
};

// Condition codes (the 4-bit cc field of jcc/setcc).
enum class Cc : std::uint8_t {
  kO = 0x0, kNo = 0x1, kB = 0x2, kAe = 0x3, kE = 0x4, kNe = 0x5,
  kBe = 0x6, kA = 0x7, kS = 0x8, kNs = 0x9, kP = 0xA, kNp = 0xB,
  kL = 0xC, kGe = 0xD, kLe = 0xE, kG = 0xF,
};

// Memory operand: [base + disp] or [base + index*1 + disp]. rsp is not
// usable as an index (hardware restriction); the encoder asserts on it.
struct Mem {
  Gp base;
  std::int32_t disp = 0;
  bool has_index = false;
  Gp index = Gp::rax;
};

inline Mem ptr(Gp base, std::int32_t disp = 0) { return Mem{base, disp}; }
inline Mem ptr_idx(Gp base, Gp index, std::int32_t disp = 0) {
  return Mem{base, disp, true, index};
}

// Forward-referenceable jump target. Bind-once; every jcc/jmp referencing it
// before bind() records a rel32 fixup patched at bind time.
class Label {
 public:
  bool bound() const { return pos_ >= 0; }

 private:
  friend class Emitter;
  std::int32_t pos_ = -1;
  std::vector<std::uint32_t> refs_;  // offsets of unresolved rel32 fields
};

class Emitter {
 public:
  const std::uint8_t* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }
  std::uint32_t offset() const { return static_cast<std::uint32_t>(buf_.size()); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }

  // ---- moves ----------------------------------------------------------------
  void mov_ri(Gp dst, std::uint32_t imm);     // mov r32, imm32 (zero-extends)
  void mov_ri64(Gp dst, std::uint64_t imm);   // movabs r64, imm64
  void mov_rr(Gp dst, Gp src);                // mov r32, r32
  void mov_rr64(Gp dst, Gp src);              // mov r64, r64
  void mov_rm(Gp dst, const Mem& m);          // mov r32, [m]
  void mov_rm64(Gp dst, const Mem& m);        // mov r64, [m]
  void mov_mr(const Mem& m, Gp src);          // mov [m], r32
  void mov_mr64(const Mem& m, Gp src);        // mov [m], r64
  void mov_mr8(const Mem& m, Gp src);         // mov [m], r8 (low byte)
  void mov_mr16(const Mem& m, Gp src);        // mov [m], r16
  void mov_mi(const Mem& m, std::uint32_t imm);   // mov dword [m], imm32
  void mov_mi8(const Mem& m, std::uint8_t imm);   // mov byte [m], imm8
  void movzx_rm8(Gp dst, const Mem& m);       // movzx r32, byte [m]
  void movzx_rm16(Gp dst, const Mem& m);      // movzx r32, word [m]
  void movsx_rm8(Gp dst, const Mem& m);       // movsx r32, byte [m]
  void movsx_rm16(Gp dst, const Mem& m);      // movsx r32, word [m]
  void movsx_rr8(Gp dst, Gp src);             // movsx r32, r8
  void movsx_rr16(Gp dst, Gp src);            // movsx r32, r16

  // ---- ALU (32-bit unless noted) --------------------------------------------
  void add_rr(Gp dst, Gp src);
  void add_rm(Gp dst, const Mem& m);
  void add_ri(Gp dst, std::uint32_t imm);
  void add_ri64(Gp dst, std::int32_t imm);    // add r64, imm (sign-extended)
  void add_mi64(const Mem& m, std::int32_t imm);  // add qword [m], imm
  void add_mr64(const Mem& m, Gp src);        // add qword [m], r64
  void or_rr(Gp dst, Gp src);
  void or_rr64(Gp dst, Gp src);               // or r64, r64
  void or_ri(Gp dst, std::uint32_t imm);
  void or_rm8(Gp dst, const Mem& m);          // or r8, byte [m]
  void adc_rr(Gp dst, Gp src);
  void adc_ri(Gp dst, std::uint32_t imm);
  void sbb_rr(Gp dst, Gp src);
  void sbb_ri(Gp dst, std::uint32_t imm);
  void and_rr(Gp dst, Gp src);
  void and_ri(Gp dst, std::uint32_t imm);
  void sub_rr(Gp dst, Gp src);
  void sub_ri(Gp dst, std::uint32_t imm);
  void sub_ri64(Gp dst, std::int32_t imm);    // sub r64, imm (sign-extended)
  void xor_rr(Gp dst, Gp src);
  void xor_rr64(Gp dst, Gp src);              // xor r64, r64
  void xor_ri(Gp dst, std::uint32_t imm);
  void xor_rm8(Gp dst, const Mem& m);         // xor r8, byte [m]
  void cmp_rr(Gp a, Gp b);
  void cmp_rm(Gp a, const Mem& m);            // cmp r32, [m]
  void cmp_rm64(Gp a, const Mem& m);          // cmp r64, [m]
  void cmp_ri(Gp a, std::uint32_t imm);
  void cmp_ri64(Gp a, std::int32_t imm);      // cmp r64, imm (sign-extended)
  void test_rr(Gp a, Gp b);
  void test_rr64(Gp a, Gp b);
  void test_ri(Gp a, std::uint32_t imm);
  void not_r(Gp r);
  void neg_r(Gp r);
  void mul_r(Gp r);        // mul r32  (edx:eax = eax * r32)
  void imul_r(Gp r);       // imul r32 (edx:eax = eax * r32, signed)
  void imul_rr(Gp dst, Gp src);  // imul r32, r32
  void shl_ri(Gp r, std::uint8_t imm);
  void shl_ri64(Gp r, std::uint8_t imm);      // shl r64, imm8
  void shr_ri64(Gp r, std::uint8_t imm);      // shr r64, imm8
  void shr_ri(Gp r, std::uint8_t imm);
  void sar_ri(Gp r, std::uint8_t imm);
  void shl_cl(Gp r);
  void shr_cl(Gp r);
  void sar_cl(Gp r);
  void popcnt_rr(Gp dst, Gp src);    // popcnt r32, r32
  void popcnt_rr64(Gp dst, Gp src);  // popcnt r64, r64
  void bswap_r(Gp r);          // bswap r32
  void ror16_ri(Gp r, std::uint8_t imm);  // ror r16, imm8 (halfword swap)
  void bt_ri(Gp r, std::uint8_t bit);     // bt r32, imm8 (CF = bit)
  void bt_rr(Gp r, Gp bit);               // bt r32, r32 (CF = bit# in reg)
  void setcc_r(Cc cc, Gp dst);            // setcc r8 (forces REX for spl..dil)
  void setcc_m(Cc cc, const Mem& m);      // setcc byte [m]
  void lea_r32(Gp dst, const Mem& m);     // lea r32, [m] (32-bit truncation)
  void lea_r64(Gp dst, const Mem& m);     // lea r64, [m]

  // ---- SSE2 scalar (single = *ss, double = *sd) -----------------------------
  void movss_rm(Xmm dst, const Mem& m);   // movss xmm, dword [m]
  void movss_mr(const Mem& m, Xmm src);   // movss dword [m], xmm
  void movsd_rm(Xmm dst, const Mem& m);   // movsd xmm, qword [m]
  void movsd_mr(const Mem& m, Xmm src);   // movsd qword [m], xmm
  void pshufd(Xmm dst, Xmm src, std::uint8_t order);  // dword shuffle
  void unpcklps(Xmm dst, Xmm src);        // interleave the low dwords
  void addss(Xmm dst, Xmm src);
  void subss(Xmm dst, Xmm src);
  void mulss(Xmm dst, Xmm src);
  void divss(Xmm dst, Xmm src);
  void sqrtss(Xmm dst, Xmm src);
  void addsd(Xmm dst, Xmm src);
  void subsd(Xmm dst, Xmm src);
  void mulsd(Xmm dst, Xmm src);
  void divsd(Xmm dst, Xmm src);
  void sqrtsd(Xmm dst, Xmm src);
  void ucomiss(Xmm a, Xmm b);             // ZF/PF/CF = unordered-aware compare
  void ucomisd(Xmm a, Xmm b);
  void cvttss2si(Gp dst, Xmm src);        // r32 = trunc(single)
  void cvttsd2si(Gp dst, Xmm src);        // r32 = trunc(double)
  void cvtsi2ss(Xmm dst, Gp src);         // single = (float)r32
  void cvtsi2sd(Xmm dst, Gp src);         // double = (double)r32
  void cvtss2sd(Xmm dst, Xmm src);
  void cvtsd2ss(Xmm dst, Xmm src);

  // ---- control --------------------------------------------------------------
  void jcc(Cc cc, Label& target);  // jcc rel32
  void jmp(Label& target);         // jmp rel32
  // Emits `jmp rel32` targeting the next instruction (rel 0) and returns the
  // byte offset of the rel32 field — the block chainer's patch site.
  std::uint32_t jmp_patchable();
  void call_r(Gp r);               // call r64
  void jmp_m(const Mem& m);        // jmp qword [m]
  void ret();
  void push_r(Gp r);               // push r64
  void pop_r(Gp r);                // pop r64
  void int3();

  void bind(Label& label);

 private:
  void u8(std::uint8_t b) { buf_.push_back(b); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  // REX prefix covering reg (modrm.reg), and the rm side (base+index of a
  // memory operand or the rm register). Emitted only when a bit is set,
  // unless `force` (8-bit ops on spl/bpl/sil/dil).
  void rex(bool w, unsigned reg, unsigned index, unsigned base,
           bool force = false);
  void rex_rm(bool w, Gp reg, const Mem& m, bool force = false);
  void rex_rr(bool w, Gp reg, Gp rm, bool force = false);
  void modrm_reg(unsigned reg, unsigned rm);
  void modrm_mem(unsigned reg, const Mem& m);
  void alu_rr32(std::uint8_t op_index, Gp dst, Gp src);   // opcode k*8+3
  void alu_ri32(std::uint8_t op_index, Gp dst, std::uint32_t imm);
  void alu_rr64(std::uint8_t op_index, Gp dst, Gp src);
  void alu_ri64(std::uint8_t op_index, Gp dst, std::int32_t imm);
  void grp3_r32(std::uint8_t ext, Gp r);                  // F7 /ext
  void shift_ri(bool w, std::uint8_t ext, Gp r, std::uint8_t imm);
  void shift_cl32(std::uint8_t ext, Gp r);
  void put_rel32(Label& target);
  // [prefix] [REX] 0F op ModRM: the SSE register-register and
  // register-memory forms (prefix 0 = none).
  void sse_rr(std::uint8_t prefix, std::uint8_t op, unsigned reg,
              unsigned rm);
  void sse_rm(std::uint8_t prefix, std::uint8_t op, unsigned reg,
              const Mem& m);

  std::vector<std::uint8_t> buf_;
};

}  // namespace nfp::asmkit::x64
