// Byte-exact golden-encoding tests for the x86-64 emitter.
//
// Every expected byte sequence below was derived by disassembling the
// emitter's output with binutils objdump
// (`objdump -D -b binary -m i386:x86-64`) and checking the mnemonic/operand
// rendering against the intended instruction. The bytes are committed as
// constants so any future encoder change that silently flips an encoding
// (dropped REX, wrong ModRM mode, missing SIB, bad displacement width)
// fails here before it can reach the JIT.
#include "asmkit/x64.h"

#include <cstdint>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

namespace {

using nfp::asmkit::x64::Cc;
using nfp::asmkit::x64::Emitter;
using nfp::asmkit::x64::Gp;
using nfp::asmkit::x64::Label;
using nfp::asmkit::x64::ptr;
using nfp::asmkit::x64::ptr_idx;
using nfp::asmkit::x64::Xmm;

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  return {v.begin(), v.end()};
}

template <typename Fn>
void expect_encoding(const char* what, Fn&& emit,
                     std::initializer_list<int> expected) {
  Emitter e;
  emit(e);
  EXPECT_EQ(e.bytes(), bytes(expected)) << what;
}

TEST(X64Encoding, MovImmediate) {
  // mov $0x12345678,%ecx
  expect_encoding("mov_ri ecx",
                  [](Emitter& e) { e.mov_ri(Gp::rcx, 0x12345678); },
                  {0xb9, 0x78, 0x56, 0x34, 0x12});
  // mov $0xdeadbeef,%r10d
  expect_encoding("mov_ri r10d",
                  [](Emitter& e) { e.mov_ri(Gp::r10, 0xdeadbeef); },
                  {0x41, 0xba, 0xef, 0xbe, 0xad, 0xde});
  // movabs $0x1122334455667788,%rbx
  expect_encoding(
      "mov_ri64 rbx",
      [](Emitter& e) { e.mov_ri64(Gp::rbx, 0x1122334455667788ull); },
      {0x48, 0xbb, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11});
  // movabs $0x1122334455667788,%r14
  expect_encoding(
      "mov_ri64 r14",
      [](Emitter& e) { e.mov_ri64(Gp::r14, 0x1122334455667788ull); },
      {0x49, 0xbe, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11});
}

TEST(X64Encoding, MovRegReg) {
  // mov %edx,%eax (reg<-rm form, 8B)
  expect_encoding("mov_rr eax,edx",
                  [](Emitter& e) { e.mov_rr(Gp::rax, Gp::rdx); },
                  {0x8b, 0xc2});
  // mov %r9d,%eax
  expect_encoding("mov_rr eax,r9d",
                  [](Emitter& e) { e.mov_rr(Gp::rax, Gp::r9); },
                  {0x41, 0x8b, 0xc1});
  // mov %rbx,%r12
  expect_encoding("mov_rr64 r12,rbx",
                  [](Emitter& e) { e.mov_rr64(Gp::r12, Gp::rbx); },
                  {0x4c, 0x8b, 0xe3});
}

TEST(X64Encoding, MovLoad) {
  // mov 0x10(%rbx),%eax — disp8
  expect_encoding("mov_rm [rbx+0x10]",
                  [](Emitter& e) { e.mov_rm(Gp::rax, ptr(Gp::rbx, 0x10)); },
                  {0x8b, 0x43, 0x10});
  // mov -0x4(%r14),%ecx — negative disp8, REX.B
  expect_encoding("mov_rm [r14-4]",
                  [](Emitter& e) { e.mov_rm(Gp::rcx, ptr(Gp::r14, -4)); },
                  {0x41, 0x8b, 0x4e, 0xfc});
  // mov (%r12),%edx — r12 base forces SIB
  expect_encoding("mov_rm [r12]",
                  [](Emitter& e) { e.mov_rm(Gp::rdx, ptr(Gp::r12)); },
                  {0x41, 0x8b, 0x14, 0x24});
  // mov 0x0(%rbp),%eax — rbp base forces disp8=0
  expect_encoding("mov_rm [rbp]",
                  [](Emitter& e) { e.mov_rm(Gp::rax, ptr(Gp::rbp)); },
                  {0x8b, 0x45, 0x00});
  // mov 0x0(%r13),%eax — r13 base forces disp8=0 too
  expect_encoding("mov_rm [r13]",
                  [](Emitter& e) { e.mov_rm(Gp::rax, ptr(Gp::r13)); },
                  {0x41, 0x8b, 0x45, 0x00});
  // mov 0x80(%rbx),%eax — disp32 (0x80 does not fit disp8)
  expect_encoding("mov_rm [rbx+0x80]",
                  [](Emitter& e) { e.mov_rm(Gp::rax, ptr(Gp::rbx, 0x80)); },
                  {0x8b, 0x83, 0x80, 0x00, 0x00, 0x00});
  // mov 0x40(%r14),%rax — 64-bit load
  expect_encoding("mov_rm64 [r14+0x40]",
                  [](Emitter& e) { e.mov_rm64(Gp::rax, ptr(Gp::r14, 0x40)); },
                  {0x49, 0x8b, 0x46, 0x40});
}

TEST(X64Encoding, MovStore) {
  // mov %eax,0x10(%rbx)
  expect_encoding("mov_mr [rbx+0x10],eax",
                  [](Emitter& e) { e.mov_mr(ptr(Gp::rbx, 0x10), Gp::rax); },
                  {0x89, 0x43, 0x10});
  // mov %ecx,(%r12,%rcx,1) — base+index SIB
  expect_encoding(
      "mov_mr [r12+rcx],ecx",
      [](Emitter& e) { e.mov_mr(ptr_idx(Gp::r12, Gp::rcx), Gp::rcx); },
      {0x41, 0x89, 0x0c, 0x0c});
  // mov %rax,0x20(%r14)
  expect_encoding("mov_mr64 [r14+0x20],rax",
                  [](Emitter& e) { e.mov_mr64(ptr(Gp::r14, 0x20), Gp::rax); },
                  {0x49, 0x89, 0x46, 0x20});
  // mov %al,0x8(%rbx)
  expect_encoding("mov_mr8 [rbx+8],al",
                  [](Emitter& e) { e.mov_mr8(ptr(Gp::rbx, 8), Gp::rax); },
                  {0x88, 0x43, 0x08});
  // mov %sil,(%rbx) — needs bare REX to address sil not dh
  expect_encoding("mov_mr8 [rbx],sil",
                  [](Emitter& e) { e.mov_mr8(ptr(Gp::rbx), Gp::rsi); },
                  {0x40, 0x88, 0x33});
  // mov %ax,0x8(%rbx) — 0x66 operand-size prefix
  expect_encoding("mov_mr16 [rbx+8],ax",
                  [](Emitter& e) { e.mov_mr16(ptr(Gp::rbx, 8), Gp::rax); },
                  {0x66, 0x89, 0x43, 0x08});
  // mov %cx,(%r12,%rdx,1) — prefix must precede REX
  expect_encoding(
      "mov_mr16 [r12+rdx],cx",
      [](Emitter& e) { e.mov_mr16(ptr_idx(Gp::r12, Gp::rdx), Gp::rcx); },
      {0x66, 0x41, 0x89, 0x0c, 0x14});
  // movl $0x42,0x18(%rbx)
  expect_encoding("mov_mi [rbx+0x18],0x42",
                  [](Emitter& e) { e.mov_mi(ptr(Gp::rbx, 0x18), 0x42); },
                  {0xc7, 0x43, 0x18, 0x42, 0x00, 0x00, 0x00});
  // movb $0x1,0x3c(%rbx)
  expect_encoding("mov_mi8 [rbx+0x3c],1",
                  [](Emitter& e) { e.mov_mi8(ptr(Gp::rbx, 0x3c), 1); },
                  {0xc6, 0x43, 0x3c, 0x01});
}

TEST(X64Encoding, Extensions) {
  // movzbl 0x3d(%rbx),%eax
  expect_encoding("movzx_rm8",
                  [](Emitter& e) { e.movzx_rm8(Gp::rax, ptr(Gp::rbx, 0x3d)); },
                  {0x0f, 0xb6, 0x43, 0x3d});
  // movzbl (%r12,%rcx,1),%edx
  expect_encoding(
      "movzx_rm8 sib",
      [](Emitter& e) { e.movzx_rm8(Gp::rdx, ptr_idx(Gp::r12, Gp::rcx)); },
      {0x41, 0x0f, 0xb6, 0x14, 0x0c});
  // movzwl 0x2(%r14),%ecx
  expect_encoding("movzx_rm16",
                  [](Emitter& e) { e.movzx_rm16(Gp::rcx, ptr(Gp::r14, 2)); },
                  {0x41, 0x0f, 0xb7, 0x4e, 0x02});
  // movsbl (%r12,%rcx,1),%eax
  expect_encoding(
      "movsx_rm8",
      [](Emitter& e) { e.movsx_rm8(Gp::rax, ptr_idx(Gp::r12, Gp::rcx)); },
      {0x41, 0x0f, 0xbe, 0x04, 0x0c});
  // movswl (%rbx),%ecx
  expect_encoding("movsx_rm16",
                  [](Emitter& e) { e.movsx_rm16(Gp::rcx, ptr(Gp::rbx)); },
                  {0x0f, 0xbf, 0x0b});
  // movsbl %cl,%eax
  expect_encoding("movsx_rr8 cl",
                  [](Emitter& e) { e.movsx_rr8(Gp::rax, Gp::rcx); },
                  {0x0f, 0xbe, 0xc1});
  // movsbl %sil,%eax — forced REX selects sil not dh
  expect_encoding("movsx_rr8 sil",
                  [](Emitter& e) { e.movsx_rr8(Gp::rax, Gp::rsi); },
                  {0x40, 0x0f, 0xbe, 0xc6});
  // movswl %ax,%ecx
  expect_encoding("movsx_rr16",
                  [](Emitter& e) { e.movsx_rr16(Gp::rcx, Gp::rax); },
                  {0x0f, 0xbf, 0xc8});
}

TEST(X64Encoding, AluRegReg) {
  expect_encoding("add", [](Emitter& e) { e.add_rr(Gp::rax, Gp::rdx); },
                  {0x03, 0xc2});
  expect_encoding("or", [](Emitter& e) { e.or_rr(Gp::rax, Gp::r9); },
                  {0x41, 0x0b, 0xc1});
  expect_encoding("adc", [](Emitter& e) { e.adc_rr(Gp::rcx, Gp::rdx); },
                  {0x13, 0xca});
  expect_encoding("sbb", [](Emitter& e) { e.sbb_rr(Gp::rcx, Gp::rdx); },
                  {0x1b, 0xca});
  expect_encoding("and", [](Emitter& e) { e.and_rr(Gp::rax, Gp::rcx); },
                  {0x23, 0xc1});
  expect_encoding("sub", [](Emitter& e) { e.sub_rr(Gp::rax, Gp::rcx); },
                  {0x2b, 0xc1});
  expect_encoding("xor", [](Emitter& e) { e.xor_rr(Gp::rdx, Gp::rdx); },
                  {0x33, 0xd2});
  expect_encoding("cmp", [](Emitter& e) { e.cmp_rr(Gp::rax, Gp::r11); },
                  {0x41, 0x3b, 0xc3});
}

TEST(X64Encoding, AluImmediate) {
  // imm8 sign-extended form (0x83) when the value fits
  expect_encoding("add imm8", [](Emitter& e) { e.add_ri(Gp::rax, 4); },
                  {0x83, 0xc0, 0x04});
  // imm32 form (0x81) otherwise
  expect_encoding("add imm32", [](Emitter& e) { e.add_ri(Gp::rax, 0x1000); },
                  {0x81, 0xc0, 0x00, 0x10, 0x00, 0x00});
  // 0x80 is NOT imm8-safe (sign-extends to -128)
  expect_encoding("or imm32", [](Emitter& e) { e.or_ri(Gp::rcx, 0x80); },
                  {0x81, 0xc9, 0x80, 0x00, 0x00, 0x00});
  expect_encoding("adc 0", [](Emitter& e) { e.adc_ri(Gp::rax, 0); },
                  {0x83, 0xd0, 0x00});
  expect_encoding("sbb 0", [](Emitter& e) { e.sbb_ri(Gp::rax, 0); },
                  {0x83, 0xd8, 0x00});
  expect_encoding("and 0x1f", [](Emitter& e) { e.and_ri(Gp::rax, 0x1f); },
                  {0x83, 0xe0, 0x1f});
  expect_encoding("sub 8", [](Emitter& e) { e.sub_ri(Gp::rsp, 8); },
                  {0x83, 0xec, 0x08});
  // 0xffffffff == -1 fits imm8
  expect_encoding("xor -1", [](Emitter& e) { e.xor_ri(Gp::rax, 0xffffffff); },
                  {0x83, 0xf0, 0xff});
  expect_encoding("cmp 3", [](Emitter& e) { e.cmp_ri(Gp::rcx, 3); },
                  {0x83, 0xf9, 0x03});
  expect_encoding("cmp r8 imm32",
                  [](Emitter& e) { e.cmp_ri(Gp::r8, 0x01000000); },
                  {0x41, 0x81, 0xf8, 0x00, 0x00, 0x00, 0x01});
}

TEST(X64Encoding, Alu64) {
  // add $-5,%r13 (sign-extended imm8)
  expect_encoding("add_ri64 -5", [](Emitter& e) { e.add_ri64(Gp::r13, -5); },
                  {0x49, 0x83, 0xc5, 0xfb});
  expect_encoding("sub_ri64 1", [](Emitter& e) { e.sub_ri64(Gp::r13, 1); },
                  {0x49, 0x83, 0xed, 0x01});
  expect_encoding("cmp_ri64 0x100",
                  [](Emitter& e) { e.cmp_ri64(Gp::r13, 0x100); },
                  {0x49, 0x81, 0xfd, 0x00, 0x01, 0x00, 0x00});
  // addq $0x7,0x148(%rbx) — the instret batch update shape
  expect_encoding("add_mi64 imm8",
                  [](Emitter& e) { e.add_mi64(ptr(Gp::rbx, 0x148), 7); },
                  {0x48, 0x83, 0x83, 0x48, 0x01, 0x00, 0x00, 0x07});
  expect_encoding(
      "add_mi64 imm32",
      [](Emitter& e) { e.add_mi64(ptr(Gp::rbx, 0x148), 0x200); },
      {0x48, 0x81, 0x83, 0x48, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00});
  // add %rcx,(%rax,%rdx,1) — the per-op retire counter shape
  expect_encoding(
      "add_mr64",
      [](Emitter& e) { e.add_mr64(ptr_idx(Gp::rax, Gp::rdx), Gp::rcx); },
      {0x48, 0x01, 0x0c, 0x10});
  expect_encoding("add_rm",
                  [](Emitter& e) { e.add_rm(Gp::rax, ptr(Gp::rbx, 4)); },
                  {0x03, 0x43, 0x04});
}

TEST(X64Encoding, PackedToggle64) {
  // The register-resident toggle ledger's 64-bit forms: pack b:a into one
  // word, xor it against the history, popcount the difference.
  // shl $0x20,%rdx ; shl $0x3,%r10
  expect_encoding("shl_ri64 rdx", [](Emitter& e) { e.shl_ri64(Gp::rdx, 32); },
                  {0x48, 0xc1, 0xe2, 0x20});
  expect_encoding("shl_ri64 r10", [](Emitter& e) { e.shl_ri64(Gp::r10, 3); },
                  {0x49, 0xc1, 0xe2, 0x03});
  // or %rcx,%rdx ; or %r11,%r8
  expect_encoding("or_rr64 rdx rcx",
                  [](Emitter& e) { e.or_rr64(Gp::rdx, Gp::rcx); },
                  {0x48, 0x0b, 0xd1});
  expect_encoding("or_rr64 r8 r11",
                  [](Emitter& e) { e.or_rr64(Gp::r8, Gp::r11); },
                  {0x4d, 0x0b, 0xc3});
  // xor %rdx,%r8 ; xor %r15,%rax
  expect_encoding("xor_rr64 r8 rdx",
                  [](Emitter& e) { e.xor_rr64(Gp::r8, Gp::rdx); },
                  {0x4c, 0x33, 0xc2});
  expect_encoding("xor_rr64 rax r15",
                  [](Emitter& e) { e.xor_rr64(Gp::rax, Gp::r15); },
                  {0x49, 0x33, 0xc7});
  // popcnt: the F3 prefix precedes REX.W (and REX.R/REX.B for r8..r15)
  expect_encoding("popcnt_rr64 rcx rcx",
                  [](Emitter& e) { e.popcnt_rr64(Gp::rcx, Gp::rcx); },
                  {0xf3, 0x48, 0x0f, 0xb8, 0xc9});
  expect_encoding("popcnt_rr64 rax r8",
                  [](Emitter& e) { e.popcnt_rr64(Gp::rax, Gp::r8); },
                  {0xf3, 0x49, 0x0f, 0xb8, 0xc0});
  expect_encoding("popcnt_rr64 r11 rdx",
                  [](Emitter& e) { e.popcnt_rr64(Gp::r11, Gp::rdx); },
                  {0xf3, 0x4c, 0x0f, 0xb8, 0xda});
  expect_encoding("popcnt_rr64 r9 r15",
                  [](Emitter& e) { e.popcnt_rr64(Gp::r9, Gp::r15); },
                  {0xf3, 0x4d, 0x0f, 0xb8, 0xcf});
}

TEST(X64Encoding, CmpMem) {
  // cmp 0x4(%rbx),%eax
  expect_encoding("cmp_rm disp8",
                  [](Emitter& e) { e.cmp_rm(Gp::rax, ptr(Gp::rbx, 4)); },
                  {0x3b, 0x43, 0x04});
  // cmp (%rdx,%rax,1),%ecx — the inline-BTC tag probe shape
  expect_encoding(
      "cmp_rm sib",
      [](Emitter& e) { e.cmp_rm(Gp::rcx, ptr_idx(Gp::rdx, Gp::rax)); },
      {0x3b, 0x0c, 0x02});
  // cmp 0x40(%r14),%rax — a 64-bit compare against a JitRt field
  expect_encoding("cmp_rm64 [r14+0x40]",
                  [](Emitter& e) { e.cmp_rm64(Gp::rax, ptr(Gp::r14, 0x40)); },
                  {0x49, 0x3b, 0x46, 0x40});
  // cmp 0x8(%rax,%rdx,1),%rcx
  expect_encoding(
      "cmp_rm64 sib",
      [](Emitter& e) { e.cmp_rm64(Gp::rcx, ptr_idx(Gp::rax, Gp::rdx, 8)); },
      {0x48, 0x3b, 0x4c, 0x10, 0x08});
}

TEST(X64Encoding, ByteAlu) {
  // or 0x3e(%rbx),%al
  expect_encoding("or_rm8",
                  [](Emitter& e) { e.or_rm8(Gp::rax, ptr(Gp::rbx, 0x3e)); },
                  {0x0a, 0x43, 0x3e});
  // xor 0x3f(%rbx),%cl
  expect_encoding("xor_rm8",
                  [](Emitter& e) { e.xor_rm8(Gp::rcx, ptr(Gp::rbx, 0x3f)); },
                  {0x32, 0x4b, 0x3f});
}

TEST(X64Encoding, TestAndUnary) {
  expect_encoding("test_rr", [](Emitter& e) { e.test_rr(Gp::rax, Gp::rax); },
                  {0x85, 0xc0});
  expect_encoding("test_rr64",
                  [](Emitter& e) { e.test_rr64(Gp::r13, Gp::r13); },
                  {0x4d, 0x85, 0xed});
  expect_encoding("test_ri",
                  [](Emitter& e) { e.test_ri(Gp::rcx, 0x80000000u); },
                  {0xf7, 0xc1, 0x00, 0x00, 0x00, 0x80});
  expect_encoding("not", [](Emitter& e) { e.not_r(Gp::rax); }, {0xf7, 0xd0});
  expect_encoding("neg", [](Emitter& e) { e.neg_r(Gp::rcx); }, {0xf7, 0xd9});
  expect_encoding("mul", [](Emitter& e) { e.mul_r(Gp::rcx); }, {0xf7, 0xe1});
  expect_encoding("imul", [](Emitter& e) { e.imul_r(Gp::rcx); }, {0xf7, 0xe9});
  expect_encoding("imul_rr", [](Emitter& e) { e.imul_rr(Gp::rax, Gp::rdx); },
                  {0x0f, 0xaf, 0xc2});
}

TEST(X64Encoding, Shifts) {
  expect_encoding("shl imm", [](Emitter& e) { e.shl_ri(Gp::rax, 10); },
                  {0xc1, 0xe0, 0x0a});
  expect_encoding("shr imm", [](Emitter& e) { e.shr_ri(Gp::rdx, 0x14); },
                  {0xc1, 0xea, 0x14});
  expect_encoding("sar imm", [](Emitter& e) { e.sar_ri(Gp::rax, 0x1f); },
                  {0xc1, 0xf8, 0x1f});
  expect_encoding("shl cl", [](Emitter& e) { e.shl_cl(Gp::rax); },
                  {0xd3, 0xe0});
  expect_encoding("shr cl", [](Emitter& e) { e.shr_cl(Gp::rdx); },
                  {0xd3, 0xea});
  expect_encoding("sar cl r8d", [](Emitter& e) { e.sar_cl(Gp::r8); },
                  {0x41, 0xd3, 0xf8});
}

TEST(X64Encoding, Misc) {
  expect_encoding("bswap eax", [](Emitter& e) { e.bswap_r(Gp::rax); },
                  {0x0f, 0xc8});
  expect_encoding("bswap r9d", [](Emitter& e) { e.bswap_r(Gp::r9); },
                  {0x41, 0x0f, 0xc9});
  // popcnt — the cost-ledger toggle tally; the F3 prefix precedes any REX
  expect_encoding("popcnt eax",
                  [](Emitter& e) { e.popcnt_rr(Gp::rax, Gp::rax); },
                  {0xf3, 0x0f, 0xb8, 0xc0});
  expect_encoding("popcnt ecx edx",
                  [](Emitter& e) { e.popcnt_rr(Gp::rcx, Gp::rdx); },
                  {0xf3, 0x0f, 0xb8, 0xca});
  expect_encoding("popcnt r10d ecx",
                  [](Emitter& e) { e.popcnt_rr(Gp::r10, Gp::rcx); },
                  {0xf3, 0x44, 0x0f, 0xb8, 0xd1});
  // add %rax,0x2a8(%r15) — one op's slot of a ledger tally array
  expect_encoding(
      "add_mr64 [r15+disp32]",
      [](Emitter& e) { e.add_mr64(ptr(Gp::r15, 0x2a8), Gp::rax); },
      {0x49, 0x01, 0x87, 0xa8, 0x02, 0x00, 0x00});
  // ror $0x8,%ax — the big-endian halfword swap
  expect_encoding("ror16", [](Emitter& e) { e.ror16_ri(Gp::rax, 8); },
                  {0x66, 0xc1, 0xc8, 0x08});
  expect_encoding("bt imm", [](Emitter& e) { e.bt_ri(Gp::rcx, 0); },
                  {0x0f, 0xba, 0xe1, 0x00});
  expect_encoding("bt reg", [](Emitter& e) { e.bt_rr(Gp::rax, Gp::rcx); },
                  {0x0f, 0xa3, 0xc8});
  expect_encoding("seto al", [](Emitter& e) { e.setcc_r(Cc::kO, Gp::rax); },
                  {0x0f, 0x90, 0xc0});
  // setb %sil — forced REX, else this would encode dh
  expect_encoding("setb sil", [](Emitter& e) { e.setcc_r(Cc::kB, Gp::rsi); },
                  {0x40, 0x0f, 0x92, 0xc6});
  expect_encoding("sete mem",
                  [](Emitter& e) { e.setcc_m(Cc::kE, ptr(Gp::rbx, 0x3d)); },
                  {0x0f, 0x94, 0x43, 0x3d});
  // lea -0x40000000(%rcx),%edx — the RAM-bias address check shape
  expect_encoding(
      "lea bias",
      [](Emitter& e) { e.lea_r32(Gp::rdx, ptr(Gp::rcx, -0x40000000)); },
      {0x8d, 0x91, 0x00, 0x00, 0x00, 0xc0});
  expect_encoding(
      "lea sib",
      [](Emitter& e) { e.lea_r32(Gp::rax, ptr_idx(Gp::r12, Gp::rcx, 4)); },
      {0x41, 0x8d, 0x44, 0x0c, 0x04});
  // lea -0x40000000(%rcx),%rdx — the hoisted base-register range check
  expect_encoding(
      "lea64 bias",
      [](Emitter& e) { e.lea_r64(Gp::rdx, ptr(Gp::rcx, -0x40000000)); },
      {0x48, 0x8d, 0x91, 0x00, 0x00, 0x00, 0xc0});
  // shr $0x20,%rbp — the operand history's high half
  expect_encoding("shr_ri64 rbp", [](Emitter& e) { e.shr_ri64(Gp::rbp, 32); },
                  {0x48, 0xc1, 0xed, 0x20});
}

TEST(X64Encoding, Control) {
  expect_encoding("call rax", [](Emitter& e) { e.call_r(Gp::rax); },
                  {0xff, 0xd0});
  expect_encoding("call r10", [](Emitter& e) { e.call_r(Gp::r10); },
                  {0x41, 0xff, 0xd2});
  // jmp *0x8(%rdx) — FF /4 indirect through memory
  expect_encoding("jmp_m disp8",
                  [](Emitter& e) { e.jmp_m(ptr(Gp::rdx, 8)); },
                  {0xff, 0x62, 0x08});
  // jmp *0x8(%rdx,%rax,1) — the inline-BTC dispatch shape
  expect_encoding(
      "jmp_m sib",
      [](Emitter& e) { e.jmp_m(ptr_idx(Gp::rdx, Gp::rax, 8)); },
      {0xff, 0x64, 0x02, 0x08});
  // jmp *0x8(%r14) — REX.B for high base
  expect_encoding("jmp_m r14",
                  [](Emitter& e) { e.jmp_m(ptr(Gp::r14, 8)); },
                  {0x41, 0xff, 0x66, 0x08});
  expect_encoding("push rbx", [](Emitter& e) { e.push_r(Gp::rbx); }, {0x53});
  expect_encoding("push r15", [](Emitter& e) { e.push_r(Gp::r15); },
                  {0x41, 0x57});
  expect_encoding("pop r15", [](Emitter& e) { e.pop_r(Gp::r15); },
                  {0x41, 0x5f});
  expect_encoding("pop rbx", [](Emitter& e) { e.pop_r(Gp::rbx); }, {0x5b});
  expect_encoding("ret", [](Emitter& e) { e.ret(); }, {0xc3});
  expect_encoding("int3", [](Emitter& e) { e.int3(); }, {0xcc});
}

TEST(X64Encoding, SseMoves) {
  // Scalar loads/stores against the CpuState FP file ([%rbx + disp32])
  // and SIB/REX-extended operands, plus the dword shuffles that swap a
  // SPARC register pair's words.
  // movss 0x80(%rbx),%xmm0
  expect_encoding(
      "movss rm",
      [](Emitter& e) { e.movss_rm(Xmm::xmm0, ptr(Gp::rbx, 0x80)); },
      {0xf3, 0x0f, 0x10, 0x83, 0x80, 0x00, 0x00, 0x00});
  // movss (%r12,%rcx,1),%xmm9
  expect_encoding(
      "movss rm2",
      [](Emitter& e) { e.movss_rm(Xmm::xmm9, ptr_idx(Gp::r12, Gp::rcx)); },
      {0xf3, 0x45, 0x0f, 0x10, 0x0c, 0x0c});
  // movss %xmm1,0xfc(%rbx)
  expect_encoding(
      "movss mr",
      [](Emitter& e) { e.movss_mr(ptr(Gp::rbx, 0xfc), Xmm::xmm1); },
      {0xf3, 0x0f, 0x11, 0x8b, 0xfc, 0x00, 0x00, 0x00});
  // movss %xmm14,0x8(%r13)
  expect_encoding(
      "movss mr2",
      [](Emitter& e) { e.movss_mr(ptr(Gp::r13, 8), Xmm::xmm14); },
      {0xf3, 0x45, 0x0f, 0x11, 0x75, 0x08});
  // movsd 0x88(%rbx),%xmm0
  expect_encoding(
      "movsd rm",
      [](Emitter& e) { e.movsd_rm(Xmm::xmm0, ptr(Gp::rbx, 0x88)); },
      {0xf2, 0x0f, 0x10, 0x83, 0x88, 0x00, 0x00, 0x00});
  // movsd 0x4(%r12,%r9,1),%xmm10
  expect_encoding(
      "movsd rm2",
      [](Emitter& e) { e.movsd_rm(Xmm::xmm10, ptr_idx(Gp::r12, Gp::r9, 4)); },
      {0xf2, 0x47, 0x0f, 0x10, 0x54, 0x0c, 0x04});
  // movsd %xmm2,0x84(%rbx)
  expect_encoding(
      "movsd mr",
      [](Emitter& e) { e.movsd_mr(ptr(Gp::rbx, 0x84), Xmm::xmm2); },
      {0xf2, 0x0f, 0x11, 0x93, 0x84, 0x00, 0x00, 0x00});
  // movsd %xmm8,0x0(%rbp)
  expect_encoding(
      "movsd mr2",
      [](Emitter& e) { e.movsd_mr(ptr(Gp::rbp, 0), Xmm::xmm8); },
      {0xf2, 0x44, 0x0f, 0x11, 0x45, 0x00});
  // pshufd $0xe1,%xmm0,%xmm2
  expect_encoding(
      "pshufd",
      [](Emitter& e) { e.pshufd(Xmm::xmm2, Xmm::xmm0, 0xE1); },
      {0x66, 0x0f, 0x70, 0xd0, 0xe1});
  // pshufd $0x1,%xmm15,%xmm8
  expect_encoding(
      "pshufd2",
      [](Emitter& e) { e.pshufd(Xmm::xmm8, Xmm::xmm15, 0x01); },
      {0x66, 0x45, 0x0f, 0x70, 0xc7, 0x01});
  // unpcklps %xmm1,%xmm0
  expect_encoding(
      "unpcklps",
      [](Emitter& e) { e.unpcklps(Xmm::xmm0, Xmm::xmm1); },
      {0x0f, 0x14, 0xc1});
  // unpcklps %xmm2,%xmm9
  expect_encoding(
      "unpcklps2",
      [](Emitter& e) { e.unpcklps(Xmm::xmm9, Xmm::xmm2); },
      {0x44, 0x0f, 0x14, 0xca});
}

TEST(X64Encoding, SseArithmetic) {
  // addss %xmm1,%xmm0
  expect_encoding("addss", [](Emitter& e) { e.addss(Xmm::xmm0, Xmm::xmm1); },
                  {0xf3, 0x0f, 0x58, 0xc1});
  // subss %xmm1,%xmm0
  expect_encoding("subss", [](Emitter& e) { e.subss(Xmm::xmm0, Xmm::xmm1); },
                  {0xf3, 0x0f, 0x5c, 0xc1});
  // mulss %xmm1,%xmm0
  expect_encoding("mulss", [](Emitter& e) { e.mulss(Xmm::xmm0, Xmm::xmm1); },
                  {0xf3, 0x0f, 0x59, 0xc1});
  // divss %xmm1,%xmm0
  expect_encoding("divss", [](Emitter& e) { e.divss(Xmm::xmm0, Xmm::xmm1); },
                  {0xf3, 0x0f, 0x5e, 0xc1});
  // sqrtss %xmm0,%xmm0
  expect_encoding("sqrtss", [](Emitter& e) { e.sqrtss(Xmm::xmm0, Xmm::xmm0); },
                  {0xf3, 0x0f, 0x51, 0xc0});
  // addsd %xmm1,%xmm0
  expect_encoding("addsd", [](Emitter& e) { e.addsd(Xmm::xmm0, Xmm::xmm1); },
                  {0xf2, 0x0f, 0x58, 0xc1});
  // subsd %xmm1,%xmm0
  expect_encoding("subsd", [](Emitter& e) { e.subsd(Xmm::xmm0, Xmm::xmm1); },
                  {0xf2, 0x0f, 0x5c, 0xc1});
  // mulsd %xmm1,%xmm0
  expect_encoding("mulsd", [](Emitter& e) { e.mulsd(Xmm::xmm0, Xmm::xmm1); },
                  {0xf2, 0x0f, 0x59, 0xc1});
  // divsd %xmm1,%xmm0
  expect_encoding("divsd", [](Emitter& e) { e.divsd(Xmm::xmm0, Xmm::xmm1); },
                  {0xf2, 0x0f, 0x5e, 0xc1});
  // sqrtsd %xmm0,%xmm0
  expect_encoding("sqrtsd", [](Emitter& e) { e.sqrtsd(Xmm::xmm0, Xmm::xmm0); },
                  {0xf2, 0x0f, 0x51, 0xc0});
  // addsd %xmm9,%xmm8
  expect_encoding("addsd hi", [](Emitter& e) { e.addsd(Xmm::xmm8, Xmm::xmm9); },
                  {0xf2, 0x45, 0x0f, 0x58, 0xc1});
  // divss %xmm12,%xmm1
  expect_encoding(
      "divss hi",
      [](Emitter& e) { e.divss(Xmm::xmm1, Xmm::xmm12); },
      {0xf3, 0x41, 0x0f, 0x5e, 0xcc});
  // sqrtsd %xmm11,%xmm3
  expect_encoding(
      "sqrtsd hi",
      [](Emitter& e) { e.sqrtsd(Xmm::xmm3, Xmm::xmm11); },
      {0xf2, 0x41, 0x0f, 0x51, 0xdb});
}

TEST(X64Encoding, SseCompareConvert) {
  // ucomiss %xmm1,%xmm0
  expect_encoding(
      "ucomiss",
      [](Emitter& e) { e.ucomiss(Xmm::xmm0, Xmm::xmm1); },
      {0x0f, 0x2e, 0xc1});
  // ucomisd %xmm0,%xmm0
  expect_encoding(
      "ucomisd",
      [](Emitter& e) { e.ucomisd(Xmm::xmm0, Xmm::xmm0); },
      {0x66, 0x0f, 0x2e, 0xc0});
  // ucomisd %xmm1,%xmm12
  expect_encoding(
      "ucomisd hi",
      [](Emitter& e) { e.ucomisd(Xmm::xmm12, Xmm::xmm1); },
      {0x66, 0x44, 0x0f, 0x2e, 0xe1});
  // cvttss2si %xmm0,%eax
  expect_encoding(
      "cvttss2si",
      [](Emitter& e) { e.cvttss2si(Gp::rax, Xmm::xmm0); },
      {0xf3, 0x0f, 0x2c, 0xc0});
  // cvttsd2si %xmm1,%ecx
  expect_encoding(
      "cvttsd2si",
      [](Emitter& e) { e.cvttsd2si(Gp::rcx, Xmm::xmm1); },
      {0xf2, 0x0f, 0x2c, 0xc9});
  // cvttsd2si %xmm10,%r9d
  expect_encoding(
      "cvttsd2si hi",
      [](Emitter& e) { e.cvttsd2si(Gp::r9, Xmm::xmm10); },
      {0xf2, 0x45, 0x0f, 0x2c, 0xca});
  // cvtsi2ss %eax,%xmm0
  expect_encoding(
      "cvtsi2ss",
      [](Emitter& e) { e.cvtsi2ss(Xmm::xmm0, Gp::rax); },
      {0xf3, 0x0f, 0x2a, 0xc0});
  // cvtsi2sd %edx,%xmm1
  expect_encoding(
      "cvtsi2sd",
      [](Emitter& e) { e.cvtsi2sd(Xmm::xmm1, Gp::rdx); },
      {0xf2, 0x0f, 0x2a, 0xca});
  // cvtsi2sd %r11d,%xmm8
  expect_encoding(
      "cvtsi2sd hi",
      [](Emitter& e) { e.cvtsi2sd(Xmm::xmm8, Gp::r11); },
      {0xf2, 0x45, 0x0f, 0x2a, 0xc3});
  // cvtss2sd %xmm0,%xmm0
  expect_encoding(
      "cvtss2sd",
      [](Emitter& e) { e.cvtss2sd(Xmm::xmm0, Xmm::xmm0); },
      {0xf3, 0x0f, 0x5a, 0xc0});
  // cvtsd2ss %xmm2,%xmm1
  expect_encoding(
      "cvtsd2ss",
      [](Emitter& e) { e.cvtsd2ss(Xmm::xmm1, Xmm::xmm2); },
      {0xf2, 0x0f, 0x5a, 0xca});
}

TEST(X64Encoding, LabelsBackward) {
  // 0: xor %eax,%eax ; 2: add $1,%eax ; 5: jmp 2 → rel32 = 2-(6+4) = -8
  Emitter e;
  e.xor_rr(Gp::rax, Gp::rax);
  Label top;
  e.bind(top);
  e.add_ri(Gp::rax, 1);
  e.jmp(top);
  EXPECT_EQ(e.bytes(), bytes({0x33, 0xc0, 0x83, 0xc0, 0x01, 0xe9, 0xf8, 0xff,
                              0xff, 0xff}));
}

TEST(X64Encoding, LabelsForward) {
  // 0: test %eax,%eax ; 2: jz +N ; 8: xor %eax,%eax ; 10(bound): ret
  Emitter e;
  Label skip;
  e.test_rr(Gp::rax, Gp::rax);
  e.jcc(Cc::kE, skip);
  EXPECT_FALSE(skip.bound());
  e.xor_rr(Gp::rax, Gp::rax);
  e.bind(skip);
  EXPECT_TRUE(skip.bound());
  e.ret();
  // jz rel32: target 10, ref ends at 8 → rel = 2
  EXPECT_EQ(e.bytes(), bytes({0x85, 0xc0, 0x0f, 0x84, 0x02, 0x00, 0x00, 0x00,
                              0x33, 0xc0, 0xc3}));
}

TEST(X64Encoding, JmpPatchable) {
  // Emits jmp rel32 with rel 0 (falls through) and reports the rel32 offset.
  Emitter e;
  e.ret();
  const std::uint32_t site = e.jmp_patchable();
  EXPECT_EQ(site, 2u);  // ret(1) + E9 opcode(1)
  e.int3();
  EXPECT_EQ(e.bytes(), bytes({0xc3, 0xe9, 0x00, 0x00, 0x00, 0x00, 0xcc}));
}

TEST(X64Encoding, MultipleForwardRefsOneLabel) {
  Emitter e;
  Label out;
  e.jcc(Cc::kB, out);   // 0..5, ref at 2
  e.jcc(Cc::kAe, out);  // 6..11, ref at 8
  e.jmp(out);           // 12..16, ref at 13
  e.bind(out);          // bound at 17
  e.ret();
  EXPECT_EQ(e.bytes(),
            bytes({0x0f, 0x82, 0x0b, 0x00, 0x00, 0x00,    // jb  +11
                   0x0f, 0x83, 0x05, 0x00, 0x00, 0x00,    // jae +5
                   0xe9, 0x00, 0x00, 0x00, 0x00,          // jmp +0
                   0xc3}));
}

}  // namespace
