// x86-64 instruction encoding. Reference: Intel SDM Vol. 2 encoding tables;
// every form here is pinned byte-for-byte by tests/asmkit/x64_test.cpp
// against constants derived from binutils `as`/`objdump` output.
#include "asmkit/x64.h"

#include <cassert>

namespace nfp::asmkit::x64 {

namespace {
inline unsigned lo3(Gp r) { return static_cast<unsigned>(r) & 7u; }
inline unsigned hi1(Gp r) { return (static_cast<unsigned>(r) >> 3) & 1u; }
inline bool fits_i8(std::int32_t v) { return v >= -128 && v <= 127; }
}  // namespace

void Emitter::u32(std::uint32_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
  u8(static_cast<std::uint8_t>(v >> 16));
  u8(static_cast<std::uint8_t>(v >> 24));
}

void Emitter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Emitter::rex(bool w, unsigned reg, unsigned index, unsigned base,
                  bool force) {
  const std::uint8_t b = static_cast<std::uint8_t>(
      0x40u | (w ? 8u : 0u) | ((reg & 8u) ? 4u : 0u) |
      ((index & 8u) ? 2u : 0u) | ((base & 8u) ? 1u : 0u));
  if (b != 0x40 || force) u8(b);
}

void Emitter::rex_rm(bool w, Gp reg, const Mem& m, bool force) {
  rex(w, static_cast<unsigned>(reg),
      m.has_index ? static_cast<unsigned>(m.index) : 0u,
      static_cast<unsigned>(m.base), force);
}

void Emitter::rex_rr(bool w, Gp reg, Gp rm, bool force) {
  rex(w, static_cast<unsigned>(reg), 0u, static_cast<unsigned>(rm), force);
}

void Emitter::modrm_reg(unsigned reg, unsigned rm) {
  u8(static_cast<std::uint8_t>(0xC0u | ((reg & 7u) << 3) | (rm & 7u)));
}

void Emitter::modrm_mem(unsigned reg, const Mem& m) {
  const unsigned base = lo3(m.base);
  // rbp/r13 as base cannot use mod=00 (that encoding means rip/disp32);
  // force a disp8 of zero instead.
  unsigned mod;
  if (m.disp == 0 && base != 5u) {
    mod = 0u;
  } else if (fits_i8(m.disp)) {
    mod = 1u;
  } else {
    mod = 2u;
  }
  if (m.has_index || base == 4u) {
    // SIB required: either an index is present or the base is rsp/r12.
    assert(!m.has_index || lo3(m.index) != 4u);  // rsp is not a valid index
    u8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7u) << 3) | 4u));
    const unsigned index = m.has_index ? lo3(m.index) : 4u;  // 4 = none
    u8(static_cast<std::uint8_t>((0u << 6) | (index << 3) | base));
  } else {
    u8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7u) << 3) | base));
  }
  if (mod == 1u) {
    u8(static_cast<std::uint8_t>(m.disp));
  } else if (mod == 2u) {
    u32(static_cast<std::uint32_t>(m.disp));
  }
}

// ---- moves ------------------------------------------------------------------

void Emitter::mov_ri(Gp dst, std::uint32_t imm) {
  rex(false, 0, 0, static_cast<unsigned>(dst));
  u8(static_cast<std::uint8_t>(0xB8 + lo3(dst)));
  u32(imm);
}

void Emitter::mov_ri64(Gp dst, std::uint64_t imm) {
  rex(true, 0, 0, static_cast<unsigned>(dst));
  u8(static_cast<std::uint8_t>(0xB8 + lo3(dst)));
  u64(imm);
}

void Emitter::mov_rr(Gp dst, Gp src) {
  rex_rr(false, dst, src);
  u8(0x8B);
  modrm_reg(static_cast<unsigned>(dst), static_cast<unsigned>(src));
}

void Emitter::mov_rr64(Gp dst, Gp src) {
  rex_rr(true, dst, src);
  u8(0x8B);
  modrm_reg(static_cast<unsigned>(dst), static_cast<unsigned>(src));
}

void Emitter::mov_rm(Gp dst, const Mem& m) {
  rex_rm(false, dst, m);
  u8(0x8B);
  modrm_mem(static_cast<unsigned>(dst), m);
}

void Emitter::mov_rm64(Gp dst, const Mem& m) {
  rex_rm(true, dst, m);
  u8(0x8B);
  modrm_mem(static_cast<unsigned>(dst), m);
}

void Emitter::mov_mr(const Mem& m, Gp src) {
  rex_rm(false, src, m);
  u8(0x89);
  modrm_mem(static_cast<unsigned>(src), m);
}

void Emitter::mov_mr64(const Mem& m, Gp src) {
  rex_rm(true, src, m);
  u8(0x89);
  modrm_mem(static_cast<unsigned>(src), m);
}

void Emitter::mov_mr8(const Mem& m, Gp src) {
  // spl/bpl/sil/dil need a bare REX prefix to select the low byte.
  rex_rm(false, src, m, static_cast<unsigned>(src) >= 4);
  u8(0x88);
  modrm_mem(static_cast<unsigned>(src), m);
}

void Emitter::mov_mr16(const Mem& m, Gp src) {
  u8(0x66);
  rex_rm(false, src, m);
  u8(0x89);
  modrm_mem(static_cast<unsigned>(src), m);
}

void Emitter::mov_mi(const Mem& m, std::uint32_t imm) {
  rex_rm(false, Gp::rax, m);
  u8(0xC7);
  modrm_mem(0, m);
  u32(imm);
}

void Emitter::mov_mi8(const Mem& m, std::uint8_t imm) {
  rex_rm(false, Gp::rax, m);
  u8(0xC6);
  modrm_mem(0, m);
  u8(imm);
}

void Emitter::movzx_rm8(Gp dst, const Mem& m) {
  rex_rm(false, dst, m);
  u8(0x0F);
  u8(0xB6);
  modrm_mem(static_cast<unsigned>(dst), m);
}

void Emitter::movzx_rm16(Gp dst, const Mem& m) {
  rex_rm(false, dst, m);
  u8(0x0F);
  u8(0xB7);
  modrm_mem(static_cast<unsigned>(dst), m);
}

void Emitter::movsx_rm8(Gp dst, const Mem& m) {
  rex_rm(false, dst, m);
  u8(0x0F);
  u8(0xBE);
  modrm_mem(static_cast<unsigned>(dst), m);
}

void Emitter::movsx_rm16(Gp dst, const Mem& m) {
  rex_rm(false, dst, m);
  u8(0x0F);
  u8(0xBF);
  modrm_mem(static_cast<unsigned>(dst), m);
}

void Emitter::movsx_rr8(Gp dst, Gp src) {
  rex_rr(false, dst, src, static_cast<unsigned>(src) >= 4);
  u8(0x0F);
  u8(0xBE);
  modrm_reg(static_cast<unsigned>(dst), static_cast<unsigned>(src));
}

void Emitter::movsx_rr16(Gp dst, Gp src) {
  rex_rr(false, dst, src);
  u8(0x0F);
  u8(0xBF);
  modrm_reg(static_cast<unsigned>(dst), static_cast<unsigned>(src));
}

// ---- ALU --------------------------------------------------------------------

void Emitter::alu_rr32(std::uint8_t op_index, Gp dst, Gp src) {
  rex_rr(false, dst, src);
  u8(static_cast<std::uint8_t>(op_index * 8 + 3));  // reg <- rm form
  modrm_reg(static_cast<unsigned>(dst), static_cast<unsigned>(src));
}

void Emitter::alu_ri32(std::uint8_t op_index, Gp dst, std::uint32_t imm) {
  const auto simm = static_cast<std::int32_t>(imm);
  rex(false, 0, 0, static_cast<unsigned>(dst));
  if (fits_i8(simm)) {
    u8(0x83);
    modrm_reg(op_index, static_cast<unsigned>(dst));
    u8(static_cast<std::uint8_t>(imm));
  } else {
    u8(0x81);
    modrm_reg(op_index, static_cast<unsigned>(dst));
    u32(imm);
  }
}

void Emitter::alu_ri64(std::uint8_t op_index, Gp dst, std::int32_t imm) {
  rex(true, 0, 0, static_cast<unsigned>(dst));
  if (fits_i8(imm)) {
    u8(0x83);
    modrm_reg(op_index, static_cast<unsigned>(dst));
    u8(static_cast<std::uint8_t>(imm));
  } else {
    u8(0x81);
    modrm_reg(op_index, static_cast<unsigned>(dst));
    u32(static_cast<std::uint32_t>(imm));
  }
}

void Emitter::add_rr(Gp dst, Gp src) { alu_rr32(0, dst, src); }
void Emitter::or_rr(Gp dst, Gp src) { alu_rr32(1, dst, src); }
void Emitter::adc_rr(Gp dst, Gp src) { alu_rr32(2, dst, src); }
void Emitter::sbb_rr(Gp dst, Gp src) { alu_rr32(3, dst, src); }
void Emitter::and_rr(Gp dst, Gp src) { alu_rr32(4, dst, src); }
void Emitter::sub_rr(Gp dst, Gp src) { alu_rr32(5, dst, src); }
void Emitter::xor_rr(Gp dst, Gp src) { alu_rr32(6, dst, src); }
void Emitter::cmp_rr(Gp a, Gp b) { alu_rr32(7, a, b); }

void Emitter::add_ri(Gp dst, std::uint32_t imm) { alu_ri32(0, dst, imm); }
void Emitter::or_ri(Gp dst, std::uint32_t imm) { alu_ri32(1, dst, imm); }
void Emitter::adc_ri(Gp dst, std::uint32_t imm) { alu_ri32(2, dst, imm); }
void Emitter::sbb_ri(Gp dst, std::uint32_t imm) { alu_ri32(3, dst, imm); }
void Emitter::and_ri(Gp dst, std::uint32_t imm) { alu_ri32(4, dst, imm); }
void Emitter::sub_ri(Gp dst, std::uint32_t imm) { alu_ri32(5, dst, imm); }
void Emitter::xor_ri(Gp dst, std::uint32_t imm) { alu_ri32(6, dst, imm); }
void Emitter::cmp_ri(Gp a, std::uint32_t imm) { alu_ri32(7, a, imm); }

void Emitter::add_ri64(Gp dst, std::int32_t imm) { alu_ri64(0, dst, imm); }
void Emitter::sub_ri64(Gp dst, std::int32_t imm) { alu_ri64(5, dst, imm); }
void Emitter::cmp_ri64(Gp a, std::int32_t imm) { alu_ri64(7, a, imm); }

void Emitter::add_rm(Gp dst, const Mem& m) {
  rex_rm(false, dst, m);
  u8(0x03);
  modrm_mem(static_cast<unsigned>(dst), m);
}

void Emitter::add_mi64(const Mem& m, std::int32_t imm) {
  rex_rm(true, Gp::rax, m);
  if (fits_i8(imm)) {
    u8(0x83);
    modrm_mem(0, m);
    u8(static_cast<std::uint8_t>(imm));
  } else {
    u8(0x81);
    modrm_mem(0, m);
    u32(static_cast<std::uint32_t>(imm));
  }
}

void Emitter::add_mr64(const Mem& m, Gp src) {
  rex_rm(true, src, m);
  u8(0x01);
  modrm_mem(static_cast<unsigned>(src), m);
}

void Emitter::cmp_rm(Gp a, const Mem& m) {
  rex_rm(false, a, m);
  u8(0x3B);
  modrm_mem(static_cast<unsigned>(a), m);
}

void Emitter::cmp_rm64(Gp a, const Mem& m) {
  rex_rm(true, a, m);
  u8(0x3B);
  modrm_mem(static_cast<unsigned>(a), m);
}

void Emitter::or_rm8(Gp dst, const Mem& m) {
  rex_rm(false, dst, m, static_cast<unsigned>(dst) >= 4);
  u8(0x0A);
  modrm_mem(static_cast<unsigned>(dst), m);
}

void Emitter::xor_rm8(Gp dst, const Mem& m) {
  rex_rm(false, dst, m, static_cast<unsigned>(dst) >= 4);
  u8(0x32);
  modrm_mem(static_cast<unsigned>(dst), m);
}

void Emitter::test_rr(Gp a, Gp b) {
  rex_rr(false, b, a);
  u8(0x85);
  modrm_reg(static_cast<unsigned>(b), static_cast<unsigned>(a));
}

void Emitter::test_rr64(Gp a, Gp b) {
  rex_rr(true, b, a);
  u8(0x85);
  modrm_reg(static_cast<unsigned>(b), static_cast<unsigned>(a));
}

void Emitter::test_ri(Gp a, std::uint32_t imm) {
  rex(false, 0, 0, static_cast<unsigned>(a));
  u8(0xF7);
  modrm_reg(0, static_cast<unsigned>(a));
  u32(imm);
}

void Emitter::grp3_r32(std::uint8_t ext, Gp r) {
  rex(false, 0, 0, static_cast<unsigned>(r));
  u8(0xF7);
  modrm_reg(ext, static_cast<unsigned>(r));
}

void Emitter::not_r(Gp r) { grp3_r32(2, r); }
void Emitter::neg_r(Gp r) { grp3_r32(3, r); }
void Emitter::mul_r(Gp r) { grp3_r32(4, r); }
void Emitter::imul_r(Gp r) { grp3_r32(5, r); }

void Emitter::imul_rr(Gp dst, Gp src) {
  rex_rr(false, dst, src);
  u8(0x0F);
  u8(0xAF);
  modrm_reg(static_cast<unsigned>(dst), static_cast<unsigned>(src));
}

void Emitter::shift_ri32(std::uint8_t ext, Gp r, std::uint8_t imm) {
  rex(false, 0, 0, static_cast<unsigned>(r));
  u8(0xC1);
  modrm_reg(ext, static_cast<unsigned>(r));
  u8(imm);
}

void Emitter::shift_cl32(std::uint8_t ext, Gp r) {
  rex(false, 0, 0, static_cast<unsigned>(r));
  u8(0xD3);
  modrm_reg(ext, static_cast<unsigned>(r));
}

void Emitter::shl_ri(Gp r, std::uint8_t imm) { shift_ri32(4, r, imm); }
void Emitter::shr_ri(Gp r, std::uint8_t imm) { shift_ri32(5, r, imm); }
void Emitter::sar_ri(Gp r, std::uint8_t imm) { shift_ri32(7, r, imm); }
void Emitter::shl_cl(Gp r) { shift_cl32(4, r); }
void Emitter::shr_cl(Gp r) { shift_cl32(5, r); }
void Emitter::sar_cl(Gp r) { shift_cl32(7, r); }

void Emitter::popcnt_rr(Gp dst, Gp src) {
  u8(0xF3);  // mandatory prefix, ahead of any REX
  rex_rr(false, dst, src);
  u8(0x0F);
  u8(0xB8);
  modrm_reg(static_cast<unsigned>(dst), static_cast<unsigned>(src));
}

void Emitter::bswap_r(Gp r) {
  rex(false, 0, 0, static_cast<unsigned>(r));
  u8(0x0F);
  u8(static_cast<std::uint8_t>(0xC8 + lo3(r)));
}

void Emitter::ror16_ri(Gp r, std::uint8_t imm) {
  u8(0x66);
  rex(false, 0, 0, static_cast<unsigned>(r));
  u8(0xC1);
  modrm_reg(1, static_cast<unsigned>(r));
  u8(imm);
}

void Emitter::bt_ri(Gp r, std::uint8_t bit) {
  rex(false, 0, 0, static_cast<unsigned>(r));
  u8(0x0F);
  u8(0xBA);
  modrm_reg(4, static_cast<unsigned>(r));
  u8(bit);
}

void Emitter::bt_rr(Gp r, Gp bit) {
  rex_rr(false, bit, r);
  u8(0x0F);
  u8(0xA3);
  modrm_reg(static_cast<unsigned>(bit), static_cast<unsigned>(r));
}

void Emitter::setcc_r(Cc cc, Gp dst) {
  rex(false, 0, 0, static_cast<unsigned>(dst),
      static_cast<unsigned>(dst) >= 4);
  u8(0x0F);
  u8(static_cast<std::uint8_t>(0x90 + static_cast<unsigned>(cc)));
  modrm_reg(0, static_cast<unsigned>(dst));
}

void Emitter::setcc_m(Cc cc, const Mem& m) {
  rex_rm(false, Gp::rax, m);
  u8(0x0F);
  u8(static_cast<std::uint8_t>(0x90 + static_cast<unsigned>(cc)));
  modrm_mem(0, m);
}

void Emitter::lea_r32(Gp dst, const Mem& m) {
  rex_rm(false, dst, m);
  u8(0x8D);
  modrm_mem(static_cast<unsigned>(dst), m);
}

// ---- control ----------------------------------------------------------------

void Emitter::put_rel32(Label& target) {
  if (target.bound()) {
    const std::int64_t rel = static_cast<std::int64_t>(target.pos_) -
                             (static_cast<std::int64_t>(offset()) + 4);
    u32(static_cast<std::uint32_t>(rel));
  } else {
    target.refs_.push_back(offset());
    u32(0);
  }
}

void Emitter::jcc(Cc cc, Label& target) {
  u8(0x0F);
  u8(static_cast<std::uint8_t>(0x80 + static_cast<unsigned>(cc)));
  put_rel32(target);
}

void Emitter::jmp(Label& target) {
  u8(0xE9);
  put_rel32(target);
}

std::uint32_t Emitter::jmp_patchable() {
  u8(0xE9);
  const std::uint32_t site = offset();
  u32(0);  // rel 0: falls through to the next instruction until patched
  return site;
}

void Emitter::call_r(Gp r) {
  rex(false, 0, 0, static_cast<unsigned>(r));
  u8(0xFF);
  modrm_reg(2, static_cast<unsigned>(r));
}

void Emitter::jmp_m(const Mem& m) {
  rex_rm(false, Gp::rax, m);  // reg field carries the /4 extension, no REX.R
  u8(0xFF);
  modrm_mem(4, m);
}

void Emitter::ret() { u8(0xC3); }

void Emitter::push_r(Gp r) {
  rex(false, 0, 0, static_cast<unsigned>(r));
  u8(static_cast<std::uint8_t>(0x50 + lo3(r)));
}

void Emitter::pop_r(Gp r) {
  rex(false, 0, 0, static_cast<unsigned>(r));
  u8(static_cast<std::uint8_t>(0x58 + lo3(r)));
}

void Emitter::int3() { u8(0xCC); }

void Emitter::bind(Label& label) {
  assert(!label.bound());
  label.pos_ = static_cast<std::int32_t>(offset());
  for (const std::uint32_t ref : label.refs_) {
    const std::int64_t rel = static_cast<std::int64_t>(label.pos_) -
                             (static_cast<std::int64_t>(ref) + 4);
    const auto bits = static_cast<std::uint32_t>(rel);
    buf_[ref + 0] = static_cast<std::uint8_t>(bits);
    buf_[ref + 1] = static_cast<std::uint8_t>(bits >> 8);
    buf_[ref + 2] = static_cast<std::uint8_t>(bits >> 16);
    buf_[ref + 3] = static_cast<std::uint8_t>(bits >> 24);
  }
  label.refs_.clear();
}

}  // namespace nfp::asmkit::x64
